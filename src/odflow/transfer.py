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
    """Per-key training means: demand by (cell, slot, day-of-week), OD by
    (cell pair, slot). Keys never seen in training default to 0."""

    def __init__(self, n, slots_per_day, demand_table, od_means):
        self.n = n
        self.slots_per_day = slots_per_day
        self.demand_table = demand_table      # (n, S, 7)
        self.od_means = od_means              # {slot: {(i, j): mean}}

    @classmethod
    def build(cls, store, train_days):
        """Averages over the training days only; test days must never leak in."""
        n = store.n
        s_per_day = store.slots_per_day
        demand_sum = np.zeros((n, s_per_day, 7))
        dow_days = np.zeros(7)
        od_sums = {}
        train_days = sorted(set(train_days))
        for day in train_days:
            dow = store.key_of_abs(day * s_per_day).day_of_week
            dow_days[dow] += 1
            for slot in range(1, s_per_day + 1):
                g = store.graph_at_abs(day * s_per_day + (slot - 1))
                per_slot = od_sums.setdefault(slot, {})
                for i, j, w in g.triplets:
                    demand_sum[i - 1, slot - 1, g.key.day_of_week] += w
                    per_slot[(i, j)] = per_slot.get((i, j), 0.0) + w
        demand_table = np.zeros_like(demand_sum)
        for w in range(7):
            if dow_days[w] > 0:
                demand_table[:, :, w] = demand_sum[:, :, w] / dow_days[w]
        day_count = len(train_days)
        od_means = {
            slot: {pair: total / day_count for pair, total in per_slot.items()}
            for slot, per_slot in od_sums.items() if per_slot
        } if day_count else {}
        return cls(n, s_per_day, demand_table, od_means)

    def demand_of(self, key) -> np.ndarray:
        return self.demand_table[:, key.slot - 1, key.day_of_week].copy()

    def od_of(self, key) -> np.ndarray:
        od = np.zeros((self.n, self.n))
        for (i, j), mean in self.od_means.get(key.slot, {}).items():
            od[i - 1, j - 1] = mean
        return od

    # flat-tensor forms for checkpointing
    def to_tensors(self):
        triplets = []
        for slot in sorted(self.od_means):
            for (i, j) in sorted(self.od_means[slot]):
                triplets.append([slot, i, j, self.od_means[slot][(i, j)]])
        od = np.array(triplets, dtype=np.float64) if triplets else np.zeros((0, 4))
        return {"ha.demand": self.demand_table, "ha.od": od}

    @classmethod
    def from_tensors(cls, tensors, n, slots_per_day):
        od_means = {}
        for slot, i, j, mean in tensors["ha.od"]:
            od_means.setdefault(int(slot), {})[(int(i), int(j))] = float(mean)
        return cls(n, slots_per_day, tensors["ha.demand"], od_means)


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
