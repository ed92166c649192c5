"""Demand head, transferring probabilities, OD composition, and HA tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_grid, store_from_counts, synthetic_store
from odflow import tensorcore as tc
from odflow.ingest import SlotKey
from odflow.transfer import (HistoricalAverage, _gate_blend, compose_od,
                             demand_head, transfer_probabilities)


def _params(zp, hidden=3, rng=None, gate_demand=0.0, gate_od=0.0):
    rng = rng or np.random.Generator(np.random.PCG64(5))
    return {
        "transfer.w_p": tc.parameter(rng.normal(size=(zp, zp)) * 0.4),
        "transfer.a_p": tc.parameter(rng.normal(size=2 * zp) * 0.4),
        "transfer.ff_w1": tc.parameter(rng.normal(size=(hidden, zp)) * 0.4),
        "transfer.ff_b1": tc.parameter(np.zeros(hidden)),
        "transfer.ff_w2": tc.parameter(rng.normal(size=(1, hidden)) * 0.4),
        "transfer.ff_b2": tc.parameter(np.zeros(1)),
        "transfer.gate_demand": tc.parameter(np.array(gate_demand)),
        "transfer.gate_od": tc.parameter(np.array(gate_od)),
    }


# ---------------------------------------------------------------------------
# demand head


def test_gate_zero_returns_historical_average_exactly(rng):
    params = _params(4, gate_demand=-np.inf)
    e = tc.constant(rng.normal(size=(3, 4)))
    ha = np.array([4.0, 0.5, 2.0])
    out = demand_head(params, e, ha)
    assert np.array_equal(out.data, ha)


def test_gate_one_returns_network_output_exactly(rng):
    params = _params(4, gate_demand=np.inf)
    e = tc.constant(rng.normal(size=(3, 4)))
    raw = demand_head(params, e, None)
    out = demand_head(params, e, np.array([99.0, 99.0, 99.0]))
    assert np.array_equal(out.data, raw.data)


def test_mid_gate_is_even_blend():
    out = _gate_blend(tc.constant([2.0]), np.array([4.0]), tc.constant(np.array(0.0)))
    assert out.data == pytest.approx([3.0])


def test_demand_is_nonnegative(rng):
    params = _params(4)
    for _ in range(20):
        e = tc.constant(rng.normal(size=(5, 4)) * 3)
        out = demand_head(params, e, None)
        assert np.all(out.data >= 0.0)


def test_demand_head_matches_numpy_oracle(rng):
    params = _params(4)
    e = rng.normal(size=(3, 4))
    h1 = e @ params["transfer.ff_w1"].data.T + params["transfer.ff_b1"].data
    h1 = np.where(h1 > 0, h1, 0.2 * h1)
    raw = np.logaddexp(0.0, (h1 @ params["transfer.ff_w2"].data.T
                             + params["transfer.ff_b2"].data).reshape(-1))
    ha = np.array([1.0, 2.0, 3.0])
    expected = 0.5 * raw + 0.5 * ha   # gate logit 0
    out = demand_head(params, tc.constant(e), ha)
    assert np.allclose(out.data, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# transferring probabilities


def test_identical_embeddings_give_uniform_rows(rng):
    params = _params(4)
    row = rng.normal(size=4)
    e = tc.constant(np.tile(row, (5, 1)))
    p = transfer_probabilities(params, e)
    assert np.allclose(p.data, np.full((5, 5), 0.2), atol=1e-12)


def test_rows_are_stochastic_and_positive(rng):
    params = _params(6)
    for _ in range(20):
        e = tc.constant(rng.normal(size=(7, 6)))
        p = transfer_probabilities(params, e)
        assert np.all(np.abs(p.data.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(p.data > 0.0)


def test_two_cell_hand_computation():
    zp = 2
    params = _params(zp)
    params["transfer.w_p"] = tc.parameter(np.array([[1.0, 0.0], [0.0, 1.0]]))
    params["transfer.a_p"] = tc.parameter(np.array([0.3, -0.2, 0.5, 0.1]))
    e = np.array([[1.0, 2.0], [-1.0, 0.5]])
    out = transfer_probabilities(params, tc.constant(e))

    def lrelu(x):
        return x if x > 0 else 0.2 * x

    u = [0.3 * r[0] - 0.2 * r[1] for r in e]
    v = [0.5 * r[0] + 0.1 * r[1] for r in e]
    scores = [[lrelu(u[i] + v[j]) for j in range(2)] for i in range(2)]
    for i in range(2):
        exps = [math.exp(s) for s in scores[i]]
        for j in range(2):
            assert out.data[i, j] == pytest.approx(exps[j] / sum(exps), abs=1e-12)


# ---------------------------------------------------------------------------
# OD composition


def test_compose_od_direct_product():
    params = _params(2, gate_od=np.inf)
    delta = tc.constant([10.0, 2.0])
    probs = tc.constant([[0.3, 0.7], [0.4, 0.6]])
    out = compose_od(params, delta, probs, np.zeros((2, 2)))
    assert np.allclose(out.data[0], [3.0, 7.0], atol=0)
    assert np.allclose(out.data[1], [0.8, 1.2], atol=1e-15)


def test_gate_one_row_sums_reproduce_demand(rng):
    params = _params(3)
    for _ in range(10):
        delta = np.abs(rng.normal(size=4)) * 5
        scores = rng.normal(size=(4, 4))
        probs = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        out = compose_od(params, tc.constant(delta), tc.constant(probs), None)
        assert np.all(np.abs(out.data.sum(axis=1) - delta) < 1e-9)


def test_zero_demand_gives_zero_od():
    params = _params(2, gate_od=np.inf)
    out = compose_od(params, tc.constant([0.0, 0.0]),
                     tc.constant([[0.5, 0.5], [0.5, 0.5]]), np.zeros((2, 2)))
    assert np.all(out.data == 0.0)


def test_od_nonnegative_with_ha_blend(rng):
    params = _params(3)
    delta = np.abs(rng.normal(size=3))
    probs = np.full((3, 3), 1.0 / 3.0)
    ha = np.abs(rng.normal(size=(3, 3)))
    out = compose_od(params, tc.constant(delta), tc.constant(probs), ha)
    assert np.all(out.data >= 0.0)


# ---------------------------------------------------------------------------
# historical average


def _tiny_store():
    grid = make_grid(1, 2)
    counts = []
    # 14 days, 24 slots, 2 cells; flow only in slot 2: 1->2 weight day+1
    for day in range(14):
        for slot in range(1, 25):
            m = np.zeros((2, 2))
            if slot == 2:
                m[0, 1] = day + 1
            counts.append(m)
    return store_from_counts(grid, counts)


def test_demand_table_means_by_dow():
    store = _tiny_store()
    ha = HistoricalAverage.build(store, train_days=range(14))
    # day_of_week w occurs on days w and w+7, with weights (w+1) and (w+8)
    for dow in range(7):
        expected = ((dow + 1) + (dow + 8)) / 2.0
        key = SlotKey(0, 2, dow)
        assert ha.demand_of(key)[0] == pytest.approx(expected)
        assert ha.demand_of(key)[1] == 0.0
    assert np.all(ha.demand_of(SlotKey(0, 3, 2)) == 0.0)


def test_od_table_means_by_slot_only():
    store = _tiny_store()
    ha = HistoricalAverage.build(store, train_days=range(14))
    key = SlotKey(5, 2, 3)
    expected = sum(range(1, 15)) / 14.0
    assert ha.od_of(key)[0, 1] == pytest.approx(expected)
    assert ha.od_of(key)[1, 0] == 0.0
    assert np.all(ha.od_of(SlotKey(5, 7, 3)) == 0.0)


def test_missing_keys_default_to_zero():
    store = _tiny_store()
    ha = HistoricalAverage.build(store, train_days=range(7))
    assert np.all(ha.od_of(SlotKey(0, 24, 0)) == 0.0)


def test_ha_built_from_training_days_only_leakage_guard():
    store = synthetic_store(rows=2, cols=2, days=12, seed=4)
    train_only = HistoricalAverage.build(store, train_days=range(9))
    with_test = HistoricalAverage.build(store, train_days=range(12))
    assert not np.array_equal(train_only.demand_table, with_test.demand_table)


def test_ha_tensor_round_trip():
    store = _tiny_store()
    ha = HistoricalAverage.build(store, train_days=range(14))
    tensors = ha.to_tensors()
    back = HistoricalAverage.from_tensors(tensors, ha.n, ha.slots_per_day)
    assert np.array_equal(back.demand_table, ha.demand_table)
    assert np.array_equal(back.od_table, ha.od_table)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.sampled_from([1, 2]), st.integers(1, 9), st.data())
def test_ha_tensor_round_trip_property(n, slots_per_day, days, data):
    grid = make_grid(1, n)
    counts = data.draw(hnp.arrays(np.int32, (days * slots_per_day, n, n),
                                  elements=st.integers(0, 1000)))
    train_days = data.draw(st.lists(st.integers(0, days - 1), max_size=days))
    store = store_from_counts(grid, counts, slot_minutes=1440 // slots_per_day)
    ha = HistoricalAverage.build(store, train_days)
    tensors = ha.to_tensors()
    assert tensors["ha.od"].shape == (np.count_nonzero(ha.od_table), 4)
    back = HistoricalAverage.from_tensors(tensors, n, slots_per_day)
    assert np.array_equal(back.demand_table, ha.demand_table)
    assert np.array_equal(back.od_table, ha.od_table)
