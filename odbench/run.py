"""Benchmark of the odflow pipeline.

    python3 odbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``. With ``--trace 0`` each round starts one ``odflow`` process per
command, one at a time (a closed loop with one client), and the run prints
the end-to-end metrics. With ``--trace 1`` the same commands run in-process,
once untraced and once traced, and the run prints the per-layer metrics and
the tracing overhead. Either way the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The BLAS thread variables are passed to the program as they were found, and
recorded in the run's header line and in ``.odbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from workloads import (SLOTS_PER_DAY, WORKLOADS, Files, command_of, round_commands,
                       write_inputs)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".odbench_work"
OUT = ROOT / ".odbench_out"
SETUPS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")


class SetupError(RuntimeError):
    pass


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_odflow(argv, env, log_dir):
    """One odflow process, waited for: (exit code, wall s, peak RSS MB, stdout)."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "odflow.cli", *argv],
                                env=env, stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)   # the child's own peak RSS
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped: Popen must not wait
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text(errors="replace"))
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text()


def graph_store(grid, counts, start):
    """An odflow GraphStore holding dense (slots, n, n) counts."""
    from odflow.flowgraph import GraphStore, SlotGraph
    from odflow.ingest import SlotKey

    graphs = []
    for a, od in enumerate(counts):
        day, s = divmod(a, SLOTS_PER_DAY)
        pairs = np.argwhere(od > 0)
        graphs.append(SlotGraph(SlotKey(day, s + 1, (start.weekday() + day) % 7), grid.n,
                                [(int(i) + 1, int(j) + 1, int(od[i, j])) for i, j in pairs]))
    return GraphStore(grid, 60, start, graphs)


def write_store(w, seed, path):
    """The model's graph store, from the generator's counts: the commuter
    preset on the workload's grid and days. Returns (counts, start date)."""
    from odflow import synthgen
    from odflow.flowgraph import save_store
    from odflow.geogrid import bbox_for_grid, build_grid

    cfg = synthgen.preset("commuter", w.grid, w.grid, w.store_days, seed)
    cfg = synthgen.config_from_json({**cfg.to_dict(), **w.store_rates})
    counts = np.array(synthgen.generate_counts(cfg)[0])
    grid = build_grid(bbox_for_grid(w.grid, w.grid, cfg.cell_km), cfg.cell_km)
    save_store(graph_store(grid, counts, cfg.start_date), path)
    return counts, cfg.start_date


def set_up(w, seed, files, env):
    """Fresh work directory, the round's config files, the model's graph
    store, and one start of the program to show that it runs. Returns the
    elapsed time and the store's counts and start date."""
    shutil.rmtree(files.root, ignore_errors=True)
    start = time.perf_counter()
    write_inputs(w, seed, files)
    store = write_store(w, seed, files.store)
    code, _, _, _ = run_odflow(["--help"], env, files.root)
    if code != 0:
        raise SetupError(f"odflow --help exited {code}")
    return time.perf_counter() - start, store


# ---------------------------------------------------------------------------
# checks of one round's outputs


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def inprocess_model(files, counts, start):
    """The round's checkpoint as an ODFlowModel, on a store built in this
    process from the same counts as the round's store."""
    from odflow.geogrid import GridSpec
    from odflow.model import ModelConfig, ODFlowModel, load_checkpoint

    params, ha, meta = load_checkpoint(files.checkpoint)
    store = graph_store(GridSpec.from_dict(meta["grid"]), counts, start)
    cfg = ModelConfig.from_dict(meta["model_config"])
    return ODFlowModel(store, params, cfg, meta["degree_norms"], ha if cfg.use_ha else None)


def slot_key(model, day, slot):
    return model.store.key_of_abs(day * SLOTS_PER_DAY + slot - 1)


def round_outputs(w, seed, files):
    """The bytes of the round's report and predictions."""
    return [files.report.read_bytes()] + [
        files.prediction(k).read_bytes() for k in range(len(w.predict_targets(seed)))]


def check_round(w, seed, files, stdout, store, reference=None):
    """Check every output of a complete round; returns the facts the metrics
    and later rounds need. ``stdout`` maps step names to their output;
    repeats of a command must print the same. ``store`` is set-up's (counts,
    start date) of the model's store. ``reference`` is the first round's
    facts: later rounds must reproduce its report and predictions byte for
    byte instead of repeating the in-process predictions."""
    printed = {}
    for step, out in stdout.items():
        checks.require(printed.setdefault(command_of(step), out) == out,
                       f"{step} printed {out.strip()!r}, an earlier repeat "
                       f"{printed[command_of(step)].strip()!r}")
    stdout = printed
    trips = checks.read_trips(files.trips)
    rows = len(trips[0])
    checks.check_synth(stdout["synth"], rows)
    checks.check_ingest(_read_json(files.ingest_summary), rows)
    sidecar = _read_json(files.trips_meta)
    grid = _read_json(str(files.graphs) + ".meta.json")["grid"]
    checks.require([grid[k] for k in ("min_lat", "min_lon", "max_lat", "max_lon")]
                   == sidecar["bbox"] and (grid["rows"], grid["cols"]) == (w.grid, w.grid),
                   f"store grid {grid} does not match the synth bbox {sidecar['bbox']}")
    binned, out_of_bbox, first_day = checks.bin_trips(trips, grid)
    checks.check_build(json.loads(stdout["build-graphs"]), out_of_bbox, w.trip_days)
    checks.check_store(*checks.read_store(files.graphs, w.n), binned, first_day)

    counts, start = store
    checks.check_losses(files.losses, w.epochs)
    train_days, _, test_days = w.split()
    targets = w.targets(test_days)
    report = _read_json(files.report)
    checks.check_target_count(report, len(targets))
    dows = [(start.weekday() + d) % 7 for d in range(w.store_days)]
    checks.check_baseline(report, counts, train_days, targets, dows)
    outputs = round_outputs(w, seed, files)
    if reference is None:
        model = inprocess_model(files, counts, start)
        preds = [model.predict(slot_key(model, *t)) for t in targets]
        checks.check_model(report, preds, counts, targets, dows)
        for k, target in enumerate(w.predict_targets(seed)):
            checks.check_prediction(_read_json(files.prediction(k)),
                                    *preds[targets.index(target)])
    else:
        checks.require(outputs == reference["outputs"],
                       "report or prediction differs from the first round's")
    return {"trips": rows, "report": report, "outputs": outputs}


# ---------------------------------------------------------------------------
# runs


UNITS = {"setup_s": "s", "synth_trips_per_s": "trips/s", "ingest_trips_per_s": "trips/s",
         "build_trips_per_s": "trips/s", "train_steps_per_s": "steps/s", "od_mape0": "1",
         "demand_mape0": "1", "evaluate_s": "s", "predict_s": "s", "peak_rss_mb": "MB"}


def run_metrics(w, rounds, facts):
    """The end-to-end metrics of a run, from its rounds' {step: (wall, rss)}.

    A command's time is its fastest sample in the run. On a shared 2-vCPU
    VM the same process was seen to run up to 1.7 times slower for tens of
    seconds at a time, so a median or a mean of a run's samples moves with
    the share of the run spent slowed down; the fastest sample moves only
    when every sample was slowed."""
    walls = {}
    for steps in rounds:
        for step, (wall, _) in steps.items():
            walls.setdefault(command_of(step), []).append(wall)
    wall = {command: min(v) for command, v in walls.items()}
    report = facts["report"]
    return {
        "synth_trips_per_s": facts["trips"] / wall["synth"],
        "ingest_trips_per_s": facts["trips"] / wall["ingest"],
        "build_trips_per_s": facts["trips"] / wall["build-graphs"],
        "train_steps_per_s": w.train_steps() / wall["train"],
        "od_mape0": report["od"]["mape"]["0"],
        "demand_mape0": report["demand"]["mape"]["0"],
        "evaluate_s": wall["evaluate"],
        "predict_s": wall["predict"],
        "peak_rss_mb": max(rss for steps in rounds for _, rss in steps.values()),
    }


def untraced_run(w, seed, seconds, files, env, store):
    """Rounds of subprocess commands until ``seconds`` of them are measured."""
    rounds, errors, attempted, failed = [], [], 0, 0
    reference = None
    commands = round_commands(w, seed, files)
    while not rounds or sum(wall for r in rounds for wall, _ in r.values()) < seconds:
        steps, stdout = {}, {}
        for step, argv in commands:
            code, wall, rss, out = run_odflow(argv, env, files.root)
            if code != 0:
                errors.append(f"{step} exited {code}")
                break
            steps[step], stdout[step] = (wall, rss), out
        attempted += len(commands)
        failed += len(commands) - len(steps)
        if len(steps) < len(commands):
            break
        try:
            reference = check_round(w, seed, files, stdout, store, reference)
        except checks.CheckError as exc:
            errors.append(f"round {len(rounds) + 1}: {exc}")
            break
        rounds.append(steps)
    metrics = run_metrics(w, rounds, reference) if rounds else {}
    return metrics, attempted, failed, errors, {
        "rounds": [{step: v[0] for step, v in steps.items()} for steps in rounds]}


def load_store_rss_mb(graphs, env):
    """Resident memory one load_store call adds and keeps, in a fresh process."""
    code = ("import os, sys\n"
            "from odflow.flowgraph import load_store\n"
            "def rss():\n"
            "    with open('/proc/self/statm') as fh:\n"
            "        return int(fh.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
            "before = rss()\n"
            "store = load_store(sys.argv[1])\n"
            "print((rss() - before) / 2**20)\n")
    out = subprocess.run([sys.executable, "-c", code, str(graphs)], env=env, check=True,
                         capture_output=True, text=True, cwd=ROOT).stdout
    return float(out)


def traced_run(w, seed, files, env, store):
    """One untraced and one traced in-process round, both checked, and the
    layer metrics of the traced one."""
    import tracing

    commands = round_commands(w, seed, files)
    tracer, violations, errors = tracing.Tracer(), [], []
    walls, reference, attempted, failed = {}, None, 0, 0
    for label in ("untraced", "traced"):
        undo = tracing.install(tracer, violations) if label == "traced" else None
        try:
            results = tracing.run_inprocess(commands, tracer if undo else None)
        finally:
            if undo:
                undo()
        attempted += len(commands)
        failed += len(commands) - sum(1 for r in results if r[1] == 0)
        if failed:
            errors.append(f"{label}: {results[-1][0]} exited {results[-1][1]}")
            return {}, attempted, failed, errors, {}
        walls[label] = {step: wall for step, _, wall, _ in results}
        try:
            check_round(w, seed, files, {step: out for step, _, _, out in results},
                        store, reference)
        except checks.CheckError as exc:
            errors.append(f"{label}: {exc}")
        reference = {"outputs": round_outputs(w, seed, files)}
    errors.extend(f"attention property: {v}" for v in violations[:3])
    try:
        layers = tracing.layer_metrics(tracer)
    except checks.CheckError as exc:
        errors.append(str(exc))
        layers = {}
    overhead = sum(walls["traced"].values()) / sum(walls["untraced"].values()) - 1.0
    layers["trace.overhead_pct"] = (100.0 * overhead, "%")
    layers["trace.spans"] = (len(tracer.spans), "count")
    layers["flowgraph.load_store_rss_mb"] = (load_store_rss_mb(files.store, env), "MB")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{w.name}.spans.jsonl")
    return layers, attempted, failed, errors, {"walls": walls}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if not (SRC / "odflow" / "cli.py").is_file():
        print(f"odbench: no odflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = program_env()
    files = Files(WORK / f"{w.name}-{args.seed}-{os.getpid()}")
    blas = {k: os.environ.get(k) for k in BLAS_VARS}
    try:
        setups = [set_up(w, args.seed, files, env) for _ in range(SETUPS)]
        store = setups[-1][1]
        setups = [elapsed for elapsed, _ in setups]
        if args.trace:
            values, attempted, failed, errors, detail = traced_run(
                w, args.seed, files, env, store)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}
        else:
            values, attempted, failed, errors, detail = untraced_run(
                w, args.seed, args.seconds, files, env, store)
            values["setup_s"] = statistics.median(setups)
            metrics = {k: {"value": values[k], "unit": u} for k, u in UNITS.items()
                       if k in values}
    except SetupError as exc:
        print(f"odbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(files.root, ignore_errors=True)

    env_note = {"cpus": os.cpu_count(), "numpy": np.__version__, "blas": blas}
    for err in errors:
        print(f"odbench: CHECK FAILED: {err}")
    print(f"odbench: {w.name} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(env_note, sort_keys=True)}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace, **env_note,
              "setup_s": setups, "errors": errors, "metrics": metrics, **detail}
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
