"""Determinism and planted-structure checks for the synthetic generator."""

import numpy as np
import pytest

from odflow.synthgen import EventShock, SynthConfig, generate, generate_counts, preset


LIGHT = dict(base_rate=0.3, morning_rate=1.5, evening_rate=1.5)


def _light_preset(name, **kw):
    import dataclasses
    return dataclasses.replace(preset(name, **kw), **LIGHT)


def test_same_seed_gives_byte_identical_csv(tmp_path):
    cfg = _light_preset("commuter", rows=3, cols=3, days=8, seed=42)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    generate(cfg, a)
    generate(cfg, b)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == \
        (tmp_path / "b.csv.meta.json").read_bytes()


def test_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    generate(_light_preset("commuter", rows=3, cols=3, days=4, seed=1), a)
    generate(_light_preset("commuter", rows=3, cols=3, days=4, seed=2), b)
    assert a.read_bytes() != b.read_bytes()


def test_zero_intensities_give_empty_trip_set(tmp_path):
    cfg = SynthConfig(rows=2, cols=2, days=3, seed=5, base_rate=0.0,
                      morning_rate=0.0, evening_rate=0.0, return_frac=0.0,
                      residential=(1,), commercial=(4,))
    path = tmp_path / "empty.csv"
    count, _ = generate(cfg, path)
    assert count == 0
    assert path.read_text().splitlines() == [
        "pickup_time,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,passenger_count"]


def test_morning_flow_concentrates_where_planted():
    cfg = SynthConfig(rows=2, cols=2, days=10, seed=3, base_rate=0.0,
                      morning_rate=0.8, evening_rate=0.0, return_frac=0.0,
                      weekend_multiplier=1.0, residential=(1, 2), commercial=(3, 4))
    counts, _ = generate_counts(cfg)
    morning_total = 0
    elsewhere_total = 0
    for abs_idx, m in enumerate(counts):
        slot = abs_idx % 24 + 1
        if slot in (8, 9, 10):
            morning_total += m[:2, 2:].sum()
            elsewhere_total += m.sum() - m[:2, 2:].sum()
        else:
            elsewhere_total += m.sum()
    # rate: 4 pairs * 0.8 per slot * 3 slots * 10 days = 96 expected
    expected = 4 * 0.8 * 3 * 10
    assert elsewhere_total == 0
    assert abs(morning_total - expected) <= 4 * np.sqrt(expected)


def test_trips_fall_inside_their_cells(tmp_path):
    from odflow.geogrid import assign_cell, build_grid
    from odflow.ingest import parse_trips

    cfg = _light_preset("commuter", rows=3, cols=3, days=2, seed=8)
    path = tmp_path / "trips.csv"
    generate(cfg, path)
    records, rejects = parse_trips(path)
    assert rejects.total == 0
    import json
    meta = json.loads((tmp_path / "trips.csv.meta.json").read_text())
    grid = build_grid(tuple(meta["bbox"]), meta["cell_km"])
    for r in records[:200]:
        assert assign_cell(grid, r.pickup_lat, r.pickup_lon) is not None
        assert assign_cell(grid, r.dropoff_lat, r.dropoff_lon) is not None


def test_built_store_matches_generated_counts(tmp_path, capsys):
    # at this config and seed, points written with %.6f once rounded 7 trips
    # into a neighbouring cell and 3 out of the bbox
    import dataclasses
    import json
    from odflow.cli import main
    from odflow.flowgraph import load_store

    cfg = dataclasses.replace(_light_preset("commuter", rows=3, cols=3, days=2, seed=1),
                              cell_km=0.2)
    trips, graphs = tmp_path / "trips.csv", tmp_path / "graphs.jsonl"
    generate(cfg, trips)
    assert main(["build-graphs", "--trips", str(trips), "--out", str(graphs)]) == 0
    assert json.loads(capsys.readouterr().out)["out_of_bbox"] == 0
    store = load_store(graphs)
    counts, _ = generate_counts(cfg)
    assert store.days * store.slots_per_day == len(counts)
    for a, expected in enumerate(counts):
        assert np.array_equal(store.graph_at_abs(a).dense(), expected), f"slot {a}"


def _per_cell_series(counts, n):
    out = np.array([m.sum(axis=1) for m in counts])   # (slots, n)
    inn = np.array([m.sum(axis=0) for m in counts])
    return out, inn


def _lagged_corr(out, inn, lag):
    x = out[:-lag].reshape(-1)
    y = inn[lag:].reshape(-1)
    return np.corrcoef(x, y)[0, 1]


def test_return_lag_signal_peaks_at_planted_lag():
    cfg = preset("commuter", rows=5, cols=5, days=28, seed=7)
    counts, _ = generate_counts(cfg)
    out, inn = _per_cell_series(counts, 25)
    corr6 = _lagged_corr(out, inn, cfg.return_lag)
    corr3 = _lagged_corr(out, inn, 3)
    assert corr6 > corr3


def test_event_shock_elevates_affected_window():
    cfg = preset("commuter+events", rows=5, cols=5, days=28, seed=7)
    counts, _ = generate_counts(cfg)
    ev = cfg.events[0]
    cells = np.array(ev.cells) - 1

    def window_total(day):
        total = 0.0
        for slot in range(ev.slot_lo, ev.slot_hi + 1):
            m = counts[day * 24 + slot - 1]
            total += m[cells, :].sum() + m[:, cells].sum()
        return total

    # compare with the same weekday one week earlier (no event planted there)
    assert window_total(ev.day) > 1.5 * window_total(ev.day - 7)


def test_event_days_are_not_a_week_apart():
    cfg = preset("commuter+events")
    days = [e.day for e in cfg.events]
    assert len(days) == 2
    assert (days[1] - days[0]) % 7 != 0


def test_config_validation_rejects_bad_cells():
    with pytest.raises(ValueError):
        SynthConfig(rows=2, cols=2, residential=(9,)).validate()
    with pytest.raises(ValueError):
        SynthConfig(rows=2, cols=2, days=5,
                    events=(EventShock(9, 1, 2, (1,), 2.0),)).validate()
