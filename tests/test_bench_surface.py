"""The names the benchmark in odbench/ uses must keep working.

Both checks run in subprocesses, from the repository root, so that odbench
imports the program as it does when it runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(argv, timeout):
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)


def test_benchmark_selftest_rejects_every_wrong_input():
    proc = _run(["odbench/selftest.py"], timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest: 23 of 23 wrong inputs rejected" in proc.stdout


INSTALL = """
import sys
sys.path[:0] = ["odbench", "src"]
import tracing
from odflow import model, trainer, transfer

owners = (transfer.HistoricalAverage, trainer, model.ODFlowModel)
before = [dict(vars(owner)) for owner in owners]
undo = tracing.install(tracing.Tracer(), [])
assert vars(transfer.HistoricalAverage)["od_of"] is not before[0]["od_of"]
undo()
assert [dict(vars(owner)) for owner in owners] == before
print("installed and undone")
"""


def test_tracing_finds_every_name_it_wraps():
    proc = _run(["-c", INSTALL], timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "installed and undone" in proc.stdout


TRACED_EVALUATE = """
import sys
from collections import Counter
sys.path[:0] = ["odbench", "src", "tests"]
import tracing
from conftest import synthetic_store, tiny_params, TINY_EMBED
from odflow import metrics, model
from odflow.trainer import degree_normalizers
from odflow.transfer import HistoricalAverage

store = synthetic_store(rows=2, cols=2, days=9, seed=3)
tracer, violations = tracing.Tracer(), []
undo = tracing.install(tracer, violations)
try:
    m = model.ODFlowModel(store, tiny_params(store), model.ModelConfig(embed=TINY_EMBED),
                          degree_normalizers(store, range(7)),
                          HistoricalAverage.build(store, range(7)))
    targets = metrics.eligible_targets(m, [8])
    metrics.evaluate_model(m, targets)
finally:
    undo()
fired = Counter(span[0] for span in tracer.spans)
assert not violations, violations
assert fired["model.forward"] == len(targets) == 24, fired
assert fired["spatial.spatial_layer"] > len(targets), fired
assert fired["odbench.check_sink"] == len(targets), fired
print("traced evaluate:", fired["model.forward"], "forwards,",
      fired["spatial.spatial_layer"], "spatial passes")
"""


def test_traced_evaluate_checks_every_forward():
    proc = _run(["-c", TRACED_EVALUATE], timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "traced evaluate: 24 forwards" in proc.stdout
