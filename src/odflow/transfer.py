"""Demand and OD prediction heads with historical-average fine-tuning.

The demand head is a small feed-forward network with a softplus output so
predictions stay non-negative. Transferring probabilities come from an
attention score over pairs of final embeddings, row-softmaxed so each
origin's probabilities sum to 1; OD predictions are the per-origin demand
split across destinations by those probabilities. Both heads blend with the
historical average through a learned sigmoid gate.
"""

from __future__ import annotations

import numpy as np

from . import tensorcore as tc


class HistoricalAverage:
    """Training means: demand by (cell, slot, day of week) in an (n, S, 7)
    table, OD by (slot, origin, dest) in an (S, n, n) table. Keys never seen
    in training are 0."""

    def __init__(self, n, slots_per_day, demand_table, od_table):
        self.n = n
        self.slots_per_day = slots_per_day
        self.demand_table = demand_table      # (n, S, 7)
        self.od_table = od_table              # (S, n, n)

    @classmethod
    def build(cls, store, train_days):
        """Averages over the training days only; test days must never leak in."""
        n = store.n
        s_per_day = store.slots_per_day
        train_days = sorted(set(train_days))
        counts = store.day_counts(train_days)                    # (d, S, n, n)
        demand = counts.sum(axis=3)                              # (d, S, n)
        dows = (store.start_date.weekday() + np.array(train_days, dtype=np.int64)) % 7
        demand_table = np.zeros((n, s_per_day, 7))
        for w in range(7):
            on_w = dows == w
            demand_table[:, :, w] = demand[on_w].sum(axis=0).T / max(on_w.sum(), 1)
        od_table = counts.sum(axis=0) / max(len(train_days), 1)
        return cls(n, s_per_day, demand_table, od_table)

    def demand_of(self, key) -> np.ndarray:
        return self.demand_table[:, key.slot - 1, key.day_of_week].copy()

    def od_of(self, key) -> np.ndarray:
        return self.od_table[key.slot - 1].copy()

    # flat-tensor forms for checkpointing: the OD table's nonzero entries as
    # (k, 4) rows [slot, i, j, mean], 1-based, in (slot, i, j) order
    def to_tensors(self):
        s, i, j = np.nonzero(self.od_table)
        od = np.stack([s + 1, i + 1, j + 1, self.od_table[s, i, j]], axis=1).astype(np.float64)
        return {"ha.demand": self.demand_table, "ha.od": od}

    @classmethod
    def from_tensors(cls, tensors, n, slots_per_day):
        rows = tensors["ha.od"]
        s, i, j = (rows[:, :3].astype(np.int64) - 1).T
        od_table = np.zeros((slots_per_day, n, n))
        od_table[s, i, j] = rows[:, 3]
        return cls(n, slots_per_day, tensors["ha.demand"], od_table)


def _gate_blend(raw, ha_values, gate_logit):
    gate = tc.sigmoid(gate_logit)
    complement = tc.add(tc.mul(gate, -1.0), 1.0)
    return tc.add(tc.mul(raw, gate), tc.mul(ha_values, complement))


def demand_head(params, e_final, ha_demand=None, slope=0.2):
    """Predicted demand per cell (length n, non-negative).

    ``ha_demand`` is the historical-average vector for the target key, or
    None to run the network head alone.
    """
    h1 = tc.leaky_relu(
        tc.add(tc.matmul(e_final, tc.transpose(params["transfer.ff_w1"])),
               params["transfer.ff_b1"]),
        slope)
    out = tc.add(tc.matmul(h1, tc.transpose(params["transfer.ff_w2"])),
                 params["transfer.ff_b2"])
    raw = tc.softplus(tc.reshape(out, (e_final.shape[0],)))
    if ha_demand is None:
        return raw
    return _gate_blend(raw, np.asarray(ha_demand, dtype=np.float64),
                       params["transfer.gate_demand"])


def transfer_probabilities(params, e_final, slope=0.2, sink=None):
    """Row-stochastic matrix of transfer probabilities between all cell pairs."""
    proj = tc.matmul(e_final, tc.transpose(params["transfer.w_p"]))
    zp = params["transfer.w_p"].shape[0]
    a_self = tc.rows(params["transfer.a_p"], np.arange(zp))
    a_other = tc.rows(params["transfer.a_p"], np.arange(zp, 2 * zp))
    u = tc.reshape(tc.matmul(proj, a_self), (-1, 1))
    v = tc.matmul(proj, a_other)
    scores = tc.leaky_relu(tc.add(u, v), slope)
    probs = tc.softmax_rows(scores)
    if sink is not None:
        sink.setdefault("transfer", []).append(probs.data)
    return probs


def compose_od(params, delta_hat, probabilities, ha_od=None):
    """OD matrix prediction: per-origin demand split by transfer probability,
    optionally blended with the historical-average OD table."""
    raw = tc.mul(probabilities, tc.reshape(delta_hat, (-1, 1)))
    if ha_od is None:
        return raw
    return _gate_blend(raw, np.asarray(ha_od, dtype=np.float64),
                       params["transfer.gate_od"])
