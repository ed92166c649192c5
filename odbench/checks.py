"""Checks of a round's outputs, each made apart from the program.

The expected values come from the benchmark's own reading of the files the
round wrote (the trips CSV, the JSONL store), from the split arithmetic and
from numpy formulas, never from a saved copy of an earlier output. Every
check raises CheckError on a mismatch; selftest.py feeds each one a wrong
input to show that it can fail.
"""

from __future__ import annotations

import csv
import json
import math
import re
from datetime import date

import numpy as np

THRESHOLDS = (0, 3, 5)
RTOL = 1e-9         # reported floats against recomputed ones
ATOL = 1e-12


class CheckError(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# trips CSV -> per-slot OD counts, by floor arithmetic on the bbox


def read_trips(path):
    """(pickup times as datetime64[s], (N, 4) coordinates, passenger counts)."""
    times = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0,
                       dtype="datetime64[s]", ndmin=1)
    values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3, 4, 5),
                        ndmin=2)
    return times, values[:, :4], values[:, 4].astype(np.int64)


def _cells(grid, lat, lon):
    """1-based row-major cell per point (0 outside the bbox); south and east
    edges belong to the last row and column."""
    dlat = (grid["max_lat"] - grid["min_lat"]) / grid["rows"]
    dlon = (grid["max_lon"] - grid["min_lon"]) / grid["cols"]
    inside = ((grid["min_lat"] <= lat) & (lat <= grid["max_lat"])
              & (grid["min_lon"] <= lon) & (lon <= grid["max_lon"]))
    row = np.minimum(np.floor((grid["max_lat"] - lat) / dlat), grid["rows"] - 1)
    col = np.minimum(np.floor((lon - grid["min_lon"]) / dlon), grid["cols"] - 1)
    cell = (row * grid["cols"] + col + 1).astype(np.int64)
    return np.where(inside, cell, 0)


def bin_trips(trips, grid, slots_per_day=24):
    """Passenger-weighted OD counts (slots, n, n) of trips whose endpoints lie
    in the bbox, the out-of-bbox count, and the first pickup date."""
    times, coords, passengers = trips
    n = grid["rows"] * grid["cols"]
    origin = _cells(grid, coords[:, 0], coords[:, 1])
    dest = _cells(grid, coords[:, 2], coords[:, 3])
    keep = (origin > 0) & (dest > 0)
    days_since = times.astype("datetime64[D]")
    start = days_since.min()
    day = (days_since - start).astype(np.int64)
    minute = ((times - days_since).astype(np.int64)) // 60
    slot = day * slots_per_day + minute // (1440 // slots_per_day)
    n_slots = (int(day[keep].max()) + 1) * slots_per_day
    flat = (slot[keep] * n + origin[keep] - 1) * n + dest[keep] - 1
    counts = np.bincount(flat, weights=passengers[keep], minlength=n_slots * n * n)
    return (counts.reshape(n_slots, n, n).astype(np.int64), int((~keep).sum()),
            start.astype(object))


def read_store(path, n):
    """Dense (slots, n, n) counts and the (day, slot, dow) keys of a JSONL store."""
    mats, keys = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            od = np.zeros((n, n), dtype=np.int64)
            for i, j, w in rec["od"]:
                od[i - 1, j - 1] += w
            mats.append(od)
            keys.append((rec["day"], rec["slot"], rec["dow"]))
    return np.array(mats).reshape(len(mats), n, n), keys


def check_store(store, keys, expected, start: date, slots_per_day=24):
    require(store.shape == expected.shape,
            f"store holds {store.shape[0]} slots, the CSV binning {expected.shape[0]}")
    for a, (day, slot, dow) in enumerate(keys):
        want = (a // slots_per_day, a % slots_per_day + 1,
                (start.weekday() + a // slots_per_day) % 7)
        require((day, slot, dow) == want, f"store record {a} is {(day, slot, dow)}, "
                                          f"expected {want}")
    diff = np.argwhere(store != expected)
    if diff.size:
        a, i, j = diff[0]
        raise CheckError(f"{len(diff)} OD entries differ from the CSV binning; first: "
                         f"slot {a} pair ({i + 1},{j + 1}) store {store[a, i, j]} "
                         f"csv {expected[a, i, j]}")


def check_synth(stdout, rows):
    wrote = re.match(r"wrote (\d+) trips", stdout)
    require(wrote and int(wrote.group(1)) == rows,
            f"synth reports {stdout.strip()!r}, the CSV has {rows} rows")


def check_ingest(summary, rows):
    require(summary["accepted"] == rows,
            f"ingest accepted {summary['accepted']} of {rows} CSV rows")
    require(summary["rejected"] == {}, f"ingest rejected {summary['rejected']}")


def check_build(build_out, expected_out_of_bbox, days):
    require(build_out["out_of_bbox"] == expected_out_of_bbox,
            f"build-graphs reports {build_out['out_of_bbox']} trips out of the bbox, "
            f"the CSV binning {expected_out_of_bbox}")
    require(build_out["rejected"] == {}, f"build-graphs rejected {build_out['rejected']}")
    require(build_out["days"] == days, f"store has {build_out['days']} days, expected {days}")


def check_losses(path, epochs):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == epochs, f"loss log has {len(rows)} epochs, expected {epochs}")
    for row in rows:
        for key in ("train_loss", "val_loss"):
            if row[key] != "":
                require(math.isfinite(float(row[key])),
                        f"epoch {row['epoch']}: {key} is {row[key]}")


def check_target_count(report, expected):
    for task in ("od", "demand"):
        require(report[task]["targets"] == expected,
                f"{task} report covers {report[task]['targets']} targets, "
                f"the split has {expected}")


# ---------------------------------------------------------------------------
# metric blocks


def metric_block(pred, actual):
    """MAPE-k (with the +1 denominator) and MAE-k over entries with actual >= k."""
    block = {"mape": {}, "mae": {}, "counts": {}}
    for k in THRESHOLDS:
        sel = actual >= k
        p, a = pred[sel], actual[sel]
        block["counts"][str(k)] = int(sel.sum())
        block["mape"][str(k)] = float(np.mean(np.abs(p - a) / (a + 1.0))) if p.size else None
        block["mae"][str(k)] = float(np.mean(np.abs(p - a))) if p.size else None
    return block


def check_block(reported, expected, what):
    require(reported["counts"] == expected["counts"],
            f"{what}: counts {reported['counts']}, expected {expected['counts']}")
    for metric in ("mape", "mae"):
        for k, want in expected[metric].items():
            got = reported[metric][k]
            ok = (got is None and want is None) or (
                got is not None and want is not None
                and math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL))
            require(ok, f"{what}: {metric}-{k} is {got!r}, recomputed {want!r}")


def historical_average(counts, train_days, dows, slots_per_day=24):
    """HA tables from the training days: demand per (slot, dow, cell) and OD
    per (slot, pair), each the mean over the training days it covers."""
    n = counts.shape[1]
    by_day = counts.reshape(-1, slots_per_day, n, n)[list(train_days)].astype(np.float64)
    demand = np.zeros((slots_per_day, 7, n))
    for dow in range(7):
        days = [i for i, d in enumerate(train_days) if dows[d] == dow]
        if days:
            demand[:, dow] = by_day[days].sum(axis=3).mean(axis=0)
    return demand, by_day.mean(axis=0)


def expected_blocks(preds, counts, targets, dows, slots_per_day=24):
    """Metric blocks of per-target (demand, od) predictions against the counts."""
    out = {}
    for task, col in (("demand", 0), ("od", 1)):
        pred, actual = [], []
        for (day, slot), p in zip(targets, preds):
            od = counts[day * slots_per_day + slot - 1].astype(np.float64)
            pred.append(np.ravel(p[col]))
            actual.append(od.sum(axis=1) if task == "demand" else od.ravel())
        out[task] = metric_block(np.concatenate(pred), np.concatenate(actual))
    return out


def check_baseline(report, counts, train_days, targets, dows, slots_per_day=24):
    demand_ha, od_ha = historical_average(counts, train_days, dows, slots_per_day)
    preds = [(demand_ha[slot - 1, dows[day]], od_ha[slot - 1]) for day, slot in targets]
    for task, block in expected_blocks(preds, counts, targets, dows, slots_per_day).items():
        check_block(report[task]["baseline"], block, f"{task} baseline")


def check_model(report, preds, counts, targets, dows, slots_per_day=24):
    for task, block in expected_blocks(preds, counts, targets, dows, slots_per_day).items():
        check_block(report[task], block, f"{task} model")


def check_prediction(payload, demand, od):
    """The predict output against an in-process prediction of the same target."""
    got = np.asarray(payload["demand"], dtype=np.float64)
    require(np.all(np.isfinite(got)) and np.all(got >= 0),
            "predicted demand has negative or non-finite entries")
    require(np.allclose(got, demand, rtol=RTOL, atol=ATOL),
            "predicted demand differs from the in-process prediction")
    threshold = payload["emission_threshold"]
    want = {(i + 1, j + 1): od[i, j] for i, j in zip(*np.nonzero(od > threshold))}
    got_od = {(i, j): w for i, j, w in payload["od"]}
    require(set(got_od) == set(want),
            f"predict emits {len(got_od)} OD entries, the in-process prediction "
            f"{len(want)} above {threshold}")
    for pair, w in got_od.items():
        require(math.isfinite(w) and w >= 0, f"OD entry {pair} is {w}")
        require(math.isclose(w, want[pair], rel_tol=RTOL, abs_tol=ATOL),
                f"OD entry {pair} is {w}, in-process {want[pair]}")


# ---------------------------------------------------------------------------
# properties of the method, from a forward pass's attention sink


def check_sink(sink, tol=1e-9):
    """Attention rows sum to 1: spatial class weights over their mask (0 for
    an empty class, with nothing outside the mask), temporal, fusion and
    transfer-probability rows over all entries."""
    for kind in ("spatial", "temporal", "fusion", "transfer"):
        require(sink.get(kind), f"the forward pass recorded no {kind} attention")
    weights = np.stack([w for w, _ in sink["spatial"]])
    mask = np.stack([m for _, m in sink["spatial"]])
    want = mask.any(axis=2).astype(np.float64)
    sums = np.where(mask, weights, 0.0).sum(axis=2)
    require(np.allclose(sums, want, rtol=0, atol=tol),
            f"spatial class weights sum to {sums[~np.isclose(sums, want)][:3]}")
    require(not np.any(weights[~mask]), "spatial weight outside the class mask")
    for kind in ("temporal", "fusion", "transfer"):
        sums = np.stack(sink[kind]).sum(axis=2)
        require(np.allclose(sums, 1.0, rtol=0, atol=tol),
                f"{kind} attention rows sum to {sums[~np.isclose(sums, 1.0)][:3]}")


def check_spans_fired(calls, required):
    silent = sorted(name for name in required if not calls.get(name))
    require(not silent, f"traced spans that never fired: {', '.join(silent)}")
