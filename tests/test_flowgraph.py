"""OD aggregation, semantic neighbors, degrees, and store persistence."""

import os
import tempfile
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_grid
from odflow.flowgraph import (GraphStore, SlotGraph, backward_neighbors,
                              build_slot_graphs, degrees, forward_neighbors,
                              load_store, save_store)
from odflow.ingest import SlotKey, TripRecord


def _trip(when, origin_center, dest_center, count=1):
    return TripRecord(when, origin_center[0], origin_center[1],
                      dest_center[0], dest_center[1], count)


def _graph(n, entries, key=SlotKey(0, 1, 0)):
    return SlotGraph(key, n, [(i, j, w) for (i, j, w) in entries])


def test_slots_without_trips_are_present_and_zero():
    grid = make_grid(2, 2)
    trips = [_trip(datetime(2024, 1, 1, 0, 10), grid.center(1), grid.center(2))]
    store, excluded = build_slot_graphs(trips, grid, 60)
    assert excluded == 0
    assert store.counts.shape == (24, 4, 4)
    assert np.all(store.od(SlotKey(0, 5, 0)) == 0.0)


def test_three_trips_single_bucket_trip_weighted():
    grid = make_grid(2, 3)
    when = datetime(2024, 1, 1, 7, 30)
    trips = [_trip(when, grid.center(2), grid.center(5), count=9)] * 3
    store, _ = build_slot_graphs(trips, grid, 60, weight_mode="trips")
    od = store.od(SlotKey(0, 8, 0))
    assert od[1, 4] == 3 and od.sum() == 3


def test_passenger_weighting_uses_counts():
    grid = make_grid(2, 3)
    when = datetime(2024, 1, 1, 7, 30)
    trips = [_trip(when, grid.center(2), grid.center(5), count=2),
             _trip(when, grid.center(2), grid.center(5), count=3)]
    store, _ = build_slot_graphs(trips, grid, 60, weight_mode="passengers")
    od = store.od(SlotKey(0, 8, 0))
    assert od[1, 4] == 5 and od.sum() == 5


def test_out_of_bbox_trips_are_excluded_and_tallied():
    grid = make_grid(2, 2)
    inside = grid.center(1)
    trips = [_trip(datetime(2024, 1, 1, 1, 0), inside, inside),
             _trip(datetime(2024, 1, 1, 1, 0), inside, (0.0, 0.0))]
    store, excluded = build_slot_graphs(trips, grid, 60)
    assert excluded == 1
    assert store.od(SlotKey(0, 2, 0)).sum() == 1


def test_random_trips_match_group_by_oracle(rng):
    grid = make_grid(3, 3)
    start = date(2024, 1, 1)
    trips = []
    oracle = {}
    for _ in range(500):
        day = int(rng.integers(0, 3))
        minute = int(rng.integers(0, 1440))
        origin = int(rng.integers(1, grid.n + 1))
        dest = int(rng.integers(1, grid.n + 1))
        count = int(rng.integers(1, 4))
        when = datetime(2024, 1, 1 + day, minute // 60, minute % 60)
        trips.append(_trip(when, grid.center(origin), grid.center(dest), count))
        key = (day, minute // 60 + 1, origin, dest)
        oracle[key] = oracle.get(key, 0) + count
    store, excluded = build_slot_graphs(trips, grid, 60, start_date=start)
    assert excluded == 0
    rebuilt = {}
    for a, i, j in zip(*np.nonzero(store.counts)):
        key = store.key_of_abs(int(a))
        rebuilt[(key.day_index, key.slot, int(i) + 1, int(j) + 1)] = int(store.counts[a, i, j])
    assert rebuilt == oracle
    assert store.counts.sum() == sum(t.passenger_count for t in trips)


# ---------------------------------------------------------------------------
# neighbors and degrees


def test_forward_backward_neighbors_reproduce_flow_example():
    # flows into and out of cell 14 as drawn in the source material; the
    # grid is sized to admit index 28 as-is
    g = _graph(30, [(14, 19, 2), (14, 21, 1), (14, 28, 4),
                    (7, 14, 1), (8, 14, 2), (9, 14, 5)])
    assert forward_neighbors(g, 14) == {19, 21, 28}
    assert backward_neighbors(g, 14) == {7, 8, 9}


def test_neighbors_of_empty_graph_are_empty():
    g = _graph(9, [])
    assert forward_neighbors(g, 4) == set()
    assert backward_neighbors(g, 4) == set()


def test_neighbors_exclude_self_loops():
    g = _graph(4, [(2, 2, 5), (2, 3, 1)])
    assert forward_neighbors(g, 2) == {3}
    assert backward_neighbors(g, 2) == set()


def test_random_od_matches_scan_oracles(rng):
    for _ in range(25):
        n = int(rng.integers(2, 8))
        od = (rng.uniform(size=(n, n)) < 0.3) * rng.integers(1, 5, size=(n, n))
        g = _graph(n, [(i + 1, j + 1, int(od[i, j]))
                       for i in range(n) for j in range(n) if od[i, j] > 0])
        for i in range(1, n + 1):
            row = {j + 1 for j in range(n) if od[i - 1, j] > 0 and j + 1 != i}
            col = {a + 1 for a in range(n) if od[a, i - 1] > 0 and a + 1 != i}
            assert forward_neighbors(g, i) == row
            assert backward_neighbors(g, i) == col
            assert j_in_f_iff_i_in_b(g, i, n)


def j_in_f_iff_i_in_b(g, i, n):
    fwd = forward_neighbors(g, i)
    return all((i in backward_neighbors(g, j)) == (j in fwd) for j in range(1, n + 1) if j != i)


def test_degrees_from_stated_matrix():
    g = _graph(3, [(1, 2, 2), (2, 1, 1)])
    assert degrees(g, 2) == (2, 1)
    assert degrees(g, 3) == (0, 0)


def test_degrees_of_empty_graph():
    assert degrees(_graph(3, []), 1) == (0, 0)


def test_out_degree_equals_demand_and_totals_balance(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        od = rng.integers(0, 4, size=(n, n))
        g = _graph(n, [(i + 1, j + 1, int(od[i, j]))
                       for i in range(n) for j in range(n) if od[i, j] > 0])
        store = GraphStore(make_grid(1, n), 1440, date(2024, 1, 1), [g])
        delta = store.od(g.key).sum(axis=1)
        in_total = out_total = 0
        for k in range(1, n + 1):
            ind, outd = degrees(g, k)
            assert outd == delta[k - 1]
            in_total += ind
            out_total += outd
        assert in_total == out_total == od.sum()


def test_cell_index_bounds_checked():
    g = _graph(3, [])
    with pytest.raises(ValueError):
        forward_neighbors(g, 0)
    with pytest.raises(ValueError):
        degrees(g, 4)


# ---------------------------------------------------------------------------
# persistence


def test_store_round_trip_is_bit_exact(tmp_path, rng):
    grid = make_grid(2, 2)
    trips = []
    for _ in range(60):
        day = int(rng.integers(0, 2))
        minute = int(rng.integers(0, 1440))
        when = datetime(2024, 1, 1 + day, minute // 60, minute % 60)
        trips.append(_trip(when, grid.center(int(rng.integers(1, 5))),
                           grid.center(int(rng.integers(1, 5))),
                           int(rng.integers(1, 3))))
    store, _ = build_slot_graphs(trips, grid, 60)
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_store(store, first)
    loaded = load_store(first)
    save_store(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.jsonl.meta.json").read_bytes() == \
        (tmp_path / "b.jsonl.meta.json").read_bytes()
    assert loaded.days == store.days
    assert np.array_equal(loaded.counts, store.counts)


def test_store_record_format(tmp_path):
    grid = make_grid(2, 2)
    trips = [_trip(datetime(2024, 1, 1, 0, 5), grid.center(1), grid.center(4), 2)]
    store, _ = build_slot_graphs(trips, grid, 60)
    path = tmp_path / "g.jsonl"
    save_store(store, path)
    first_line = path.read_text().splitlines()[0]
    assert first_line == '{"day":0,"slot":1,"dow":0,"od":[[1,4,2]]}'


# ---------------------------------------------------------------------------
# round-trip properties over random count arrays


@st.composite
def count_stores(draw):
    """A GraphStore over a small grid: one or two slots a day, random counts."""
    grid = make_grid(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    slot_minutes = draw(st.sampled_from([720, 1440]))
    slots = draw(st.integers(0, 4)) * (1440 // slot_minutes)
    counts = draw(hnp.arrays(np.int32, (slots, grid.n, grid.n),
                             elements=st.integers(0, 2**31 - 1) | st.integers(0, 3)))
    start = draw(st.dates(date(2000, 1, 1), date(2100, 1, 1)))
    weight = draw(st.sampled_from(["passengers", "trips"]))
    return GraphStore(grid, slot_minutes, start, counts, weight)


@settings(max_examples=60, deadline=None)
@given(count_stores())
def test_store_save_load_round_trip(store):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.jsonl"), os.path.join(tmp, "b.jsonl")
        save_store(store, first)
        loaded = load_store(first)
        save_store(loaded, second)
        for suffix in ("", ".meta.json"):
            with open(first + suffix, "rb") as a, open(second + suffix, "rb") as b:
                assert a.read() == b.read()
    assert loaded.counts.dtype == np.int32
    assert np.array_equal(loaded.counts, store.counts)
    assert (loaded.grid, loaded.slot_minutes, loaded.start_date, loaded.weight_mode) == \
        (store.grid, store.slot_minutes, store.start_date, store.weight_mode)


@settings(max_examples=60, deadline=None)
@given(count_stores(), st.randoms(use_true_random=False))
def test_store_from_shuffled_records_equals_store_from_array(store, rnd):
    records = []
    for a, od in enumerate(store.counts):
        i, j = np.nonzero(od)
        triplets = [(int(x) + 1, int(y) + 1, int(od[x, y])) for x, y in zip(i, j)]
        rnd.shuffle(triplets)
        records.append(SlotGraph(store.key_of_abs(a), store.n, triplets))
    rnd.shuffle(records)
    rebuilt = GraphStore(store.grid, store.slot_minutes, store.start_date, records)
    assert rebuilt.counts.dtype == np.int32
    assert np.array_equal(rebuilt.counts, store.counts)
