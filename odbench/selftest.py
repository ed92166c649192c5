"""Self-test of the benchmark's checks: each passes on a real round's outputs
and fails on a deliberately wrong input, so that none passes vacuously.

    python3 odbench/selftest.py

Runs one small round (3x3 grid, 10 days) through the odflow CLI in-process,
then feeds every check a mutated copy of its input. Exits 1 if a check
rejects the real outputs or accepts a wrong one.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import numpy as np

import checks
import run
import tracing
from workloads import Files, Workload, command_of, round_commands, write_inputs

SEED = 3
TINY = Workload("selftest-3x3", 3, 2, {"base_rate": 0.3}, 10, {"base_rate": 2.0}, {},
                epochs=1, train_frac=0.8, why="small enough to run in seconds")


def nudged(report, path, delta=1e-6):
    """A copy of ``report`` with the value at ``path`` moved by ``delta``."""
    bad = copy.deepcopy(report)
    block = bad
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] += delta
    return bad


def scaled_row(sink, kind):
    """A copy of ``sink`` with one attention row of ``kind`` scaled by 1.01."""
    bad = {k: [copy.deepcopy(x) for x in v] for k, v in sink.items()}
    if kind == "spatial":
        weights, mask = bad["spatial"][0]
        weights[int(np.argmax(mask.any(axis=1)))] *= 1.01
    else:
        bad[kind][0][0] *= 1.01
    return bad


def cases(w, files, stdout, store):
    """(label, check, *wrong input) for every check, and the real sink;
    ``stdout`` maps step names to what they printed."""
    trips = checks.read_trips(files.trips)
    rows = len(trips[0])
    grid = run._read_json(str(files.graphs) + ".meta.json")["grid"]
    binned, out_of_bbox, first_day = checks.bin_trips(trips, grid)
    built, keys = checks.read_store(files.graphs, w.n)
    counts, start = store
    printed = {command_of(step): out for step, out in stdout.items()}
    build = json.loads(printed["build-graphs"])
    report = run._read_json(files.report)
    prediction = run._read_json(files.prediction(0))
    train_days, _, test_days = w.split()
    targets = w.targets(test_days)
    dows = [(start.weekday() + d) % 7 for d in range(w.store_days)]
    model = run.inprocess_model(files, counts, start)
    preds = [model.predict(run.slot_key(model, *t)) for t in targets]
    target_pred = preds[targets.index(w.predict_targets(SEED)[0])]
    sink = {}
    model.forward(run.slot_key(model, *targets[0]), sink)

    times, coords, passengers = (a.copy() for a in trips)
    dlon = (grid["max_lon"] - grid["min_lon"]) / grid["cols"]
    col = int((coords[0, 3] - grid["min_lon"]) // dlon)
    coords[0, 3] += dlon if col < grid["cols"] - 1 else -dlon
    moved = checks.bin_trips((times, coords, passengers), grid)[0]

    dropped = copy.deepcopy(report)
    for task in ("od", "demand"):
        dropped[task]["targets"] -= 1
    bad_losses = files.root / "bad.losses.csv"
    bad_losses.write_text("epoch,train_loss,val_loss\n1,nan,\n")
    wrong_demand = copy.deepcopy(prediction)
    wrong_demand["demand"][0] *= 1 + 1e-6
    negative = copy.deepcopy(prediction)
    negative["demand"][0] = -negative["demand"][0]
    fewer_od = copy.deepcopy(prediction)
    fewer_od["od"].pop()
    bad_key = [keys[0][:2] + ((keys[0][2] + 1) % 7,)] + keys[1:]

    return [
        ("synth count off by one", checks.check_synth, printed["synth"], rows + 1),
        ("ingest accepts one row fewer", checks.check_ingest,
         {"accepted": rows - 1, "rejected": {}}, rows),
        ("ingest rejects a row", checks.check_ingest,
         {"accepted": rows, "rejected": {"malformed": 1}}, rows),
        ("one trip moved to a neighbouring cell", checks.check_store,
         built, keys, moved, first_day),
        ("store record with a wrong day of week", checks.check_store,
         built, bad_key, binned, first_day),
        ("out-of-bbox count off by one", checks.check_build,
         {**build, "out_of_bbox": build["out_of_bbox"] + 1}, out_of_bbox, w.trip_days),
        ("non-finite loss", checks.check_losses, bad_losses, 1),
        ("a dropped target", checks.check_target_count, dropped, len(targets)),
        ("a dropped target in the model block", checks.check_model,
         report, preds[:-1], counts, targets[:-1], dows),
        ("baseline OD MAPE-0 off by 1e-6", checks.check_baseline,
         nudged(report, ("od", "baseline", "mape", "0")), counts, train_days, targets, dows),
        ("baseline demand MAE-3 off by 1e-6", checks.check_baseline,
         nudged(report, ("demand", "baseline", "mae", "3")), counts, train_days, targets,
         dows),
        ("model OD MAPE-0 off by 1e-6", checks.check_model,
         nudged(report, ("od", "mape", "0")), preds, counts, targets, dows),
        ("model demand MAPE-0 off by 1e-6", checks.check_model,
         nudged(report, ("demand", "mape", "0")), preds, counts, targets, dows),
        ("predicted demand off by 1e-6", checks.check_prediction, wrong_demand, *target_pred),
        ("negative predicted demand", checks.check_prediction, negative, *target_pred),
        ("a dropped OD entry", checks.check_prediction, fewer_od, *target_pred),
        *[(f"{kind} row scaled by 1.01", checks.check_sink, scaled_row(sink, kind))
          for kind in ("transfer", "temporal", "fusion", "spatial")],
        ("a repeated command printing differently", run.check_round, w, SEED, files,
         {**stdout, "synth-1": "wrote 1 trips"}, store),
        ("a later round with a different report", run.check_round, w, SEED, files,
         stdout, store, {"outputs": [b"{}"]}),
        ("a span that never fired", checks.check_spans_fired,
         {name: 1 for name in tracing.REQUIRED_SPANS[1:]}, tracing.REQUIRED_SPANS),
    ], sink


def main():
    sys.path.insert(0, str(run.SRC))
    w = TINY
    files = Files(run.WORK / "selftest")
    shutil.rmtree(files.root, ignore_errors=True)
    write_inputs(w, SEED, files)
    store = run.write_store(w, SEED, files.store)
    try:
        results = tracing.run_inprocess(round_commands(w, SEED, files))
        if any(code != 0 for _, code, _, _ in results):
            print(f"selftest: the round failed at {results[-1][0]} (exit {results[-1][1]})")
            return 1
        stdout = {step: out for step, _, _, out in results}
        run.check_round(w, SEED, files, stdout, store)
        wrong, sink = cases(w, files, stdout, store)
        checks.check_sink(sink)
        print("ok    every check passes on the real outputs and attention sink")
        failures = 0
        for label, check, *args in wrong:
            try:
                check(*args)
            except checks.CheckError as exc:
                print(f"ok    {label}: {exc}")
            else:
                print(f"FAIL  {label}: the check accepted it")
                failures += 1
        print(f"selftest: {len(wrong) - failures} of {len(wrong)} wrong inputs rejected")
        return 1 if failures else 0
    finally:
        shutil.rmtree(files.root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
