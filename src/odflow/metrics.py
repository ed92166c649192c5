"""MAPE-k / MAE-k evaluation and report assembly.

The percentage error keeps the +1 in its denominator, so it stays finite on
zero-actual entries. Thresholds filter on actual values only: MAPE-k and
MAE-k for the same k always cover the same index set. An empty selection
reports null rather than a misleading 0.
"""

from __future__ import annotations

import numpy as np

from .model import ODFlowModel, open_model

THRESHOLDS = (0, 3, 5)


def _selected(pred, actual, k):
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    actual = np.asarray(actual, dtype=np.float64).reshape(-1)
    if pred.shape != actual.shape:
        raise ValueError(f"pred and actual differ in length: {pred.shape} vs {actual.shape}")
    mask = actual >= k
    return pred[mask], actual[mask]


def mape(pred, actual, k=0):
    """Mean of |pred - actual| / (actual + 1) over entries with actual >= k."""
    p, a = _selected(pred, actual, k)
    if p.size == 0:
        return None
    return float(np.mean(np.abs(p - a) / (a + 1.0)))


def mae(pred, actual, k=0):
    """Mean absolute error over entries with actual >= k."""
    p, a = _selected(pred, actual, k)
    if p.size == 0:
        return None
    return float(np.mean(np.abs(p - a)))


def metric_block(pred, actual, ks=THRESHOLDS):
    block = {"mape": {}, "mae": {}, "counts": {}}
    for k in ks:
        p, a = _selected(pred, actual, k)
        block["counts"][str(k)] = int(p.size)
        block["mape"][str(k)] = mape(pred, actual, k)
        block["mae"][str(k)] = mae(pred, actual, k)
    return block


def evaluate_model(model: ODFlowModel, target_keys, ks=THRESHOLDS, config_echo=None):
    """Model and historical-average metrics over the given targets.

    Returns {"od": report, "demand": report}; each report carries the
    model block, the baseline block, and the evaluated target count.
    """
    if model.ha is None:
        raise ValueError("evaluation requires the checkpoint's historical-average tables")
    columns = [[] for _ in range(6)]   # demand pred, actual, base; od likewise
    for key, (delta_hat, od_hat) in zip(target_keys, model.predict_many(target_keys)):
        od = model.store.od(key)
        for column, part in zip(columns, (delta_hat, od.sum(axis=1), model.ha.demand_of(key),
                                          od_hat, od, model.ha.od_of(key))):
            column.append(part.reshape(-1))
    flat = [np.concatenate(c) if c else np.zeros(0) for c in columns]

    reports = {}
    for task, (pred, actual, base) in (("demand", flat[:3]), ("od", flat[3:])):
        report = {"task": task}
        report.update(metric_block(pred, actual, ks))
        report["baseline"] = metric_block(base, actual, ks)
        report["targets"] = len(target_keys)
        report["config"] = config_echo or {}
        reports[task] = report
    return reports


def eligible_targets(model: ODFlowModel, days):
    """The keys of the given days' slots that have the history the model needs."""
    s = model.store.slots_per_day
    keys = (model.store.key_of_abs(day * s + slot) for day in days for slot in range(s))
    return [key for key in keys if model.eligible(key)]


def evaluate_checkpoint(source, store, split="test", ks=THRESHOLDS):
    """Score a split of a checkpoint path's or a TrainResult's model on a
    store. Raises ValueError when the store lacks the split's days or when
    none of their slots has the history the model needs."""
    model, meta = open_model(source, store)
    split = split if split in ("train", "val", "test") else "test"
    days = meta["split"][split]
    if days and max(days) >= store.days:
        raise ValueError(f"the store holds {store.days} days; the checkpoint's {split} "
                         f"split needs days {min(days)}-{max(days)}")
    targets = eligible_targets(model, days)
    if not targets:
        raise ValueError(f"no slot of the {split} split has the history the model needs")
    echo = {"split": split, "train_config": meta["train_config"]}
    return evaluate_model(model, targets, ks, config_echo=echo)
