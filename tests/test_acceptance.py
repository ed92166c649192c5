"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The planted-signal
experiments (criteria 6 and 7) train real models and take a few minutes;
everything else is fast. Criterion 10 only runs when ODFLOW_NYC_TRIPS
points at a real trip CSV.
"""

import contextlib
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import make_grid, store_from_counts, synthetic_store
from odflow import tensorcore as tc
from odflow.cli import main as cli_main
from odflow.flowgraph import (GraphStore, SlotGraph, backward_neighbors,
                              build_slot_graphs, degrees, forward_neighbors)
from odflow.geogrid import (EARTH_RADIUS_KM, build_distance_graph,
                            geographical_neighbors, haversine_km)
from odflow.ingest import SlotKey, TripRecord
from odflow.metrics import eligible_targets, evaluate_model, mae, mape
from odflow.model import ModelConfig, ODFlowModel, ParamStore
from odflow.spatial import EmbeddingConfig
from odflow.synthgen import preset, generate_counts
from odflow.trainer import TrainConfig, degree_normalizers, train
from odflow.transfer import (HistoricalAverage, compose_od, demand_head,
                             transfer_probabilities)

GRADCHECK_EMBED = EmbeddingConfig(embed_dim=2, proj_dim=13, heads=1,
                                  ff_hidden=4, temporal_hours=2)


@contextlib.contextmanager
def criterion(number, title):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:>2} FAIL  {title}", flush=True)
        raise
    print(f"\nACCEPTANCE {number:>2} PASS  {title} ({time.time() - started:.1f}s)",
          flush=True)


def _random_params(n, rows, cols, slots_per_day, seed,
                   embed=GRADCHECK_EMBED, channels=None):
    cfg = ModelConfig(embed=embed, channels=channels or
                      ("prev-hour-7d", "next-hour-7d", "same-hour-7d", "last-h-hours"))
    return cfg, ParamStore.initialize(cfg, n, rows, cols, slots_per_day, seed)


def _random_store(rng, rows=3, cols=3, days=9, scale=2.0):
    grid = make_grid(rows, cols)
    n = grid.n
    counts = [rng.poisson(rng.uniform(0, scale, size=(n, n)))
              for _ in range(days * 24)]
    return store_from_counts(grid, counts)


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_c01_gradient_correctness(rng):
    with criterion(1, "gradients match central finite differences"):
        started = time.time()

        # every primitive (random shapes; cotangent randomized)
        from test_tensorcore import _primitive_cases
        for name, (inputs, build) in sorted(_primitive_cases(rng).items()):
            params = {f"p{i}": tc.parameter(x) for i, x in enumerate(inputs)}
            cot = rng.normal(size=build(*params.values()).shape)

            def loss_fn(build=build, params=params, cot=cot):
                out = build(*params.values())
                if out.shape == ():
                    return out
                flat = out if out.data.ndim == 1 else tc.reshape(out, (-1,))
                return tc.matmul(flat, tc.constant(cot.reshape(-1)))

            errs = tc.gradcheck(loss_fn, params, step=1e-5)
            assert errs.max() < 1e-4, f"primitive {name}: {errs.max():.2e}"

        # the composed model on a 3x3 grid with 9 days of synthetic data
        store = synthetic_store(rows=3, cols=3, days=9, seed=17)
        norms = degree_normalizers(store, range(store.days))
        ha = HistoricalAverage.build(store, range(7))
        cfg, params = _random_params(store.n, 3, 3, store.slots_per_day, seed=2)
        model = ODFlowModel(store, params, cfg, norms, ha)
        key = store.key_of_abs(8 * 24 + 11)
        assert model.eligible(key)
        actual_od = store.od(key)
        actual_d = actual_od.sum(axis=1)

        def model_loss():
            delta_hat, od_hat = model.forward(key)
            return tc.add(tc.smooth_l1(delta_hat, tc.constant(actual_d)),
                          tc.smooth_l1(od_hat, tc.constant(actual_od)))

        errs = tc.gradcheck(model_loss, dict(params.items()), step=1e-5)
        share_tight = float(np.mean(errs < 1e-4))
        assert share_tight >= 0.99, f"only {share_tight:.4f} of params under 1e-4"
        assert errs.max() < 1e-2, f"worst-case rel err {errs.max():.2e}"
        assert time.time() - started < 120, "gradient check exceeded 2 minutes"


# ---------------------------------------------------------------------------
# 2. normalization invariants


def test_c02_normalization_invariants(rng):
    with criterion(2, "attention normalizations sum to 1 across 100 forwards"):
        sink = {}
        forwards = 0
        for block in range(10):
            store = _random_store(rng, scale=rng.uniform(0.5, 4.0))
            norms = degree_normalizers(store, range(store.days))
            ha = HistoricalAverage.build(store, range(7))
            cfg, params = _random_params(store.n, 3, 3, store.slots_per_day,
                                         seed=100 + block)
            model = ODFlowModel(store, params, cfg, norms, ha)
            keys = [k for k in (store.key_of_abs(a)
                                for a in range(7 * 24 + 2, store.days * 24))
                    if model.eligible(k)]
            for key in keys[:10]:
                model.forward(key, sink=sink)
                forwards += 1
        assert forwards >= 100

        for weights, mask in sink["spatial"]:
            sums = weights.sum(axis=1)
            nonempty = mask.any(axis=1)
            assert np.all(np.abs(sums[nonempty] - 1.0) < 1e-9)
            assert np.all(sums[~nonempty] == 0.0)
        for kind in ("temporal", "fusion", "transfer"):
            assert sink[kind], kind
            for weights in sink[kind]:
                assert np.all(np.abs(weights.sum(axis=1) - 1.0) < 1e-9), kind


# ---------------------------------------------------------------------------
# 3. marginal consistency at gate 1


def test_c03_marginal_consistency(rng):
    with criterion(3, "gate-1 OD row sums reproduce demand within 1e-9"):
        for trial in range(100):
            n = int(rng.integers(2, 9))
            zp = int(rng.integers(3, 12))
            params = {
                "transfer.w_p": tc.parameter(rng.normal(size=(zp, zp))),
                "transfer.a_p": tc.parameter(rng.normal(size=2 * zp)),
                "transfer.ff_w1": tc.parameter(rng.normal(size=(4, zp))),
                "transfer.ff_b1": tc.parameter(rng.normal(size=4)),
                "transfer.ff_w2": tc.parameter(rng.normal(size=(1, 4))),
                "transfer.ff_b2": tc.parameter(rng.normal(size=1)),
            }
            e_final = tc.constant(rng.normal(size=(n, zp)))
            delta_hat = demand_head(params, e_final, None)
            probs = transfer_probabilities(params, e_final)
            od_raw = compose_od(params, delta_hat, probs, None)
            assert np.all(np.abs(od_raw.data.sum(axis=1) - delta_hat.data) < 1e-9)


# ---------------------------------------------------------------------------
# 4. oracle equivalence


def test_c04_oracle_equivalence(rng):
    with criterion(4, "brute-force oracles agree on 100 random instances each"):
        # semantic neighbors, degrees, demand
        for _ in range(100):
            n = int(rng.integers(2, 9))
            od = (rng.uniform(size=(n, n)) < 0.35) * rng.integers(1, 9, size=(n, n))
            g = SlotGraph(SlotKey(0, 1, 0), n,
                          [(i + 1, j + 1, int(od[i, j]))
                           for i in range(n) for j in range(n) if od[i, j] > 0])
            for i in range(1, n + 1):
                fwd = {j + 1 for j in range(n) if od[i - 1, j] > 0 and j + 1 != i}
                bwd = {a + 1 for a in range(n) if od[a, i - 1] > 0 and a + 1 != i}
                assert forward_neighbors(g, i) == fwd
                assert backward_neighbors(g, i) == bwd
                assert degrees(g, i) == (od[:, i - 1].sum(), od[i - 1, :].sum())

        # geographical neighbors against the O(n^2) filter
        for _ in range(100):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(2, 6))
            grid = make_grid(rows, cols)
            dist = build_distance_graph(grid)
            threshold = float(rng.uniform(0.5, 3.0)) * grid.cell_km
            sets = geographical_neighbors(grid, dist, threshold)
            for i in range(1, grid.n + 1):
                expected = {j for j in range(1, grid.n + 1) if j != i and
                            haversine_km(*grid.center(i), *grid.center(j)) <= threshold}
                assert sets[i] == expected

        # OD aggregation against a hash group-by
        from datetime import datetime
        grid = make_grid(3, 3)
        for _ in range(100):
            trips, expected = [], {}
            for _ in range(40):
                day = int(rng.integers(0, 2))
                minute = int(rng.integers(0, 1440))
                o, d = (int(v) for v in rng.integers(1, 10, size=2))
                c = int(rng.integers(1, 4))
                trips.append(TripRecord(
                    datetime(2024, 1, 1 + day, minute // 60, minute % 60),
                    *grid.center(o), *grid.center(d), c))
                k = (day, minute // 60 + 1, o, d)
                expected[k] = expected.get(k, 0) + c
            store, _ = build_slot_graphs(trips, grid, 60,
                                         start_date=trips[0].pickup_time.date().replace(day=1))
            got = {}
            for a, i, j in zip(*np.nonzero(store.counts)):
                key = store.key_of_abs(int(a))
                got[(key.day_index, key.slot, int(i) + 1, int(j) + 1)] = \
                    int(store.counts[a, i, j])
            assert got == expected

        # haversine against the well-conditioned atan2 sphere formula
        for _ in range(100):
            lat1, lat2 = rng.uniform(-85, 85, size=2)
            lon1, lon2 = rng.uniform(-179, 179, size=2)
            p1, p2 = math.radians(lat1), math.radians(lat2)
            dl = math.radians(lon2 - lon1)
            y = math.hypot(math.cos(p2) * math.sin(dl),
                           math.cos(p1) * math.sin(p2)
                           - math.sin(p1) * math.cos(p2) * math.cos(dl))
            x = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
            expected = EARTH_RADIUS_KM * math.atan2(y, x)
            assert abs(haversine_km(lat1, lon1, lat2, lon2) - expected) < 1e-9

        # metric formulas against literal loops
        for _ in range(100):
            m = int(rng.integers(1, 30))
            pred = rng.uniform(0, 10, size=m)
            actual = rng.integers(0, 8, size=m).astype(float)
            k = int(rng.integers(0, 6))
            sel = [(p, a) for p, a in zip(pred, actual) if a >= k]
            if sel:
                exp_mape = sum(abs(p - a) / (a + 1) for p, a in sel) / len(sel)
                exp_mae = sum(abs(p - a) for p, a in sel) / len(sel)
                assert abs(mape(pred, actual, k) - exp_mape) < 1e-9
                assert abs(mae(pred, actual, k) - exp_mae) < 1e-9
            else:
                assert mape(pred, actual, k) is None


# ---------------------------------------------------------------------------
# 5. permutation properties


def test_c05_permutation_properties(rng):
    with criterion(5, "storage order is irrelevant; relabeling permutes outputs"):
        # (a) shuffling each slot's triplets and the records' order: outputs
        # within 1e-10
        counted = synthetic_store(rows=3, cols=3, days=9, seed=51)
        records = []
        for a, od in enumerate(counted.counts):
            i, j = np.nonzero(od)
            records.append(SlotGraph(counted.key_of_abs(a), counted.n,
                                     [(int(x) + 1, int(y) + 1, int(od[x, y]))
                                      for x, y in zip(i, j)]))
        shuffled = [SlotGraph(g.key, g.n, list(g.triplets)) for g in records]
        for g in shuffled:
            rng.shuffle(g.triplets)
        rng.shuffle(shuffled)
        grid, start = counted.grid, counted.start_date
        store = GraphStore(grid, 60, start, records)
        norms = degree_normalizers(store, range(store.days))
        ha = HistoricalAverage.build(store, range(7))
        cfg, params = _random_params(store.n, 3, 3, store.slots_per_day, seed=5)
        model = ODFlowModel(store, params, cfg, norms, ha)
        key = store.key_of_abs(8 * 24 + 10)
        base_d, base_od = model.predict(key)
        store2 = GraphStore(grid, 60, start, shuffled)
        model2 = ODFlowModel(store2, params, cfg, degree_normalizers(store2, range(store2.days)),
                             HistoricalAverage.build(store2, range(7)))
        shuf_d, shuf_od = model2.predict(key)
        assert np.max(np.abs(base_d - shuf_d)) < 1e-10
        assert np.max(np.abs(base_od - shuf_od)) < 1e-10

        # (b) relabeling by a grid symmetry (mirror columns) permutes outputs
        grid = make_grid(3, 3)
        perm = np.array([2, 1, 0, 5, 4, 3, 8, 7, 6])   # 0-based involution
        counts1 = [rng.poisson(rng.uniform(0, 3, size=(9, 9))) for _ in range(9 * 24)]
        counts2 = [m[np.ix_(perm, perm)] for m in counts1]
        s1 = store_from_counts(grid, counts1)
        s2 = store_from_counts(grid, counts2)
        norms1 = degree_normalizers(s1, range(s1.days))
        cfg1, params1 = _random_params(9, 3, 3, 24, seed=7)
        cfg2, params2 = _random_params(9, 3, 3, 24, seed=7)
        params2["embed.grid"].data[...] = params1["embed.grid"].data[perm]
        params2["embed.col"].data[...] = params1["embed.col"].data[::-1]
        ha1 = HistoricalAverage.build(s1, range(7))
        ha2 = HistoricalAverage.build(s2, range(7))
        m1 = ODFlowModel(s1, params1, cfg1, norms1, ha1)
        m2 = ODFlowModel(s2, params2, cfg2, norms1, ha2)
        for abs_idx in (7 * 24 + 2, 8 * 24 + 9, 8 * 24 + 20):
            key = s1.key_of_abs(abs_idx)
            d1, od1 = m1.predict(key)
            d2, od2 = m2.predict(key)
            assert np.max(np.abs(d2 - d1[perm])) < 1e-9
            assert np.max(np.abs(od2 - od1[np.ix_(perm, perm)])) < 1e-9


# ---------------------------------------------------------------------------
# 6. planted-signal learning (trains a real model; a few minutes)


COMMUTER_TRAIN = TrainConfig(epochs=10, seed=0, use_ha=True)


@pytest.fixture(scope="module")
def commuter_run():
    cfg = preset("commuter", rows=5, cols=5, days=28, seed=7)
    counts, _ = generate_counts(cfg)
    store = store_from_counts(make_grid(5, 5), counts)
    result = train(store, COMMUTER_TRAIN)
    return store, result


def test_c06_planted_signal_learning(commuter_run):
    with criterion(6, "model beats HA on planted commuter data; loss drops 10x"):
        started = time.time()
        store, result = commuter_run
        model = ODFlowModel(store, result.params, COMMUTER_TRAIN.model_config(),
                            result.meta["degree_norms"], result.ha)
        targets = eligible_targets(model, result.meta["split"]["test"])
        reports = evaluate_model(model, targets)
        od = reports["od"]
        assert od["mape"]["0"] < od["baseline"]["mape"]["0"], (
            f"model {od['mape']['0']:.5f} vs baseline {od['baseline']['mape']['0']:.5f}")
        first = result.loss_log[0][1]
        last = result.loss_log[-1][1]
        assert last <= 0.10 * first, f"loss only fell {last / first:.3f}x of epoch 1"
        assert time.time() - started < 900


# ---------------------------------------------------------------------------
# 7. non-linear channel ablation and h sweep (directional)


EVENTS_TRAIN = dict(epochs=6, seed=0, embed_dim=4, proj_dim=32, heads=2,
                    ff_hidden=16, use_ha=True)


def _events_leg(store, h, channels=None):
    cfg = TrainConfig(h=h, **EVENTS_TRAIN) if channels is None else \
        TrainConfig(h=h, channels=channels, **EVENTS_TRAIN)
    result = train(store, cfg)
    model = ODFlowModel(store, result.params, cfg.model_config(),
                        result.meta["degree_norms"], result.ha)
    targets = eligible_targets(model, result.meta["split"]["test"])
    reports = evaluate_model(model, targets)
    return reports["od"]["mape"]["0"]


def test_c07_nonlinear_channel_ablation_and_h_sweep():
    with criterion(7, "non-linear channel helps; h sweep dips at 6 +/- one step"):
        cfg = preset("commuter+events", rows=5, cols=5, days=21, seed=7)
        counts, _ = generate_counts(cfg)
        store = store_from_counts(make_grid(5, 5), counts)

        linear_only = tuple(c for c in
                            ("prev-hour-7d", "next-hour-7d", "same-hour-7d"))
        full = _events_leg(store, h=6)
        ablated = _events_leg(store, h=6, channels=linear_only)
        print(f"\n  full {full:.5f} vs non-linear disabled {ablated:.5f}", flush=True)
        assert full < ablated

        sweep = {h: _events_leg(store, h=h) for h in (1, 3, 9)}
        sweep[6] = full
        print("  h sweep:", {h: round(v, 5) for h, v in sorted(sweep.items())},
              flush=True)
        best = min(sweep, key=sweep.get)
        assert best in (3, 6, 9), f"minimum at h={best}"


# ---------------------------------------------------------------------------
# 8. end-to-end determinism


def test_c08_end_to_end_determinism(tmp_path):
    with criterion(8, "identical seeds give byte-identical reports"):
        light = tmp_path / "light.json"
        light.write_text('{"base_rate": 0.4, "morning_rate": 2.0, "evening_rate": 2.0}')
        reports = []
        for name in ("first", "second"):
            work = tmp_path / name
            work.mkdir()
            raw = work / "raw.csv"
            clean = work / "clean.csv"
            graphs = work / "graphs.jsonl"
            ckpt = work / "model.ckpt"
            report = work / "report.json"
            assert cli_main(["synth", "--grid", "3x3", "--days", "12",
                             "--seed", "11", "--config", str(light),
                             "--out", str(raw)]) == 0
            assert cli_main(["ingest", "--trips", str(raw), "--out", str(clean)]) == 0
            assert cli_main(["build-graphs", "--trips", str(clean),
                             "--bbox", _bbox_of(raw), "--cell-km", "2.5",
                             "--out", str(graphs)]) == 0
            assert cli_main(["train", "--graphs", str(graphs),
                             "--checkpoint", str(ckpt), "--quiet",
                             "--epochs", "2", "--seed", "3", "--embed-dim", "2",
                             "--dim", "13", "--heads", "1", "--ff-hidden", "4",
                             "--h", "1"]) == 0
            assert cli_main(["evaluate", "--graphs", str(graphs),
                             "--checkpoint", str(ckpt), "--no-timestamp",
                             "--out", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]


def _bbox_of(raw_csv):
    with open(str(raw_csv) + ".meta.json") as fh:
        meta = json.load(fh)
    return ",".join(repr(v) for v in meta["bbox"])


# ---------------------------------------------------------------------------
# 9. metric formula fidelity


def test_c09_metric_formula_fidelity():
    with criterion(9, "MAPE keeps the +1 denominator; MAE exact on hand table"):
        from test_metrics import HAND_TABLE
        assert len(HAND_TABLE) == 10
        for pred, actual, k, expected_mape, expected_mae in HAND_TABLE:
            got_mape, got_mae = mape(pred, actual, k), mae(pred, actual, k)
            if expected_mape is None:
                assert got_mape is None and got_mae is None
            else:
                assert got_mape == pytest.approx(expected_mape, abs=1e-12)
                assert got_mae == pytest.approx(expected_mae, abs=1e-12)
        # the +1 denominator verbatim: zero actuals stay finite
        assert mape([5.0], [0.0], 0) == 5.0


# ---------------------------------------------------------------------------
# 10. optional full-scale smoke (not gating)


@pytest.mark.skipif("ODFLOW_NYC_TRIPS" not in os.environ,
                    reason="set ODFLOW_NYC_TRIPS to a real trips CSV to enable")
def test_c10_full_scale_smoke(tmp_path):
    with criterion(10, "sweep-grid over real data emits the full table"):
        out = tmp_path / "table.json"
        code = cli_main(["sweep-grid", "--trips", os.environ["ODFLOW_NYC_TRIPS"],
                         "--cells", "2.3,2.4,2.5,2.6,2.7",
                         "--bbox", os.environ.get("ODFLOW_NYC_BBOX",
                                                  "40.55,-74.1,40.95,-73.65"),
                         "--epochs", "1", "--out", str(out), "--no-timestamp"])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["cell_km"] for r in rows] == [2.3, 2.4, 2.5, 2.6, 2.7]
