"""Composed-model contracts: eligibility, channel plans, params, checkpoints."""

import numpy as np
import pytest

from conftest import TINY_EMBED, synthetic_store, tiny_params
from odflow import tensorcore as tc
from odflow.model import (ModelConfig, ODFlowModel, ParamStore,
                          load_checkpoint, save_checkpoint)
from odflow.spatial import EmbeddingConfig
from odflow.temporal import DEFAULT_CHANNELS, InsufficientHistoryError
from odflow.trainer import degree_normalizers
from odflow.transfer import HistoricalAverage


@pytest.fixture(scope="module")
def setup():
    store = synthetic_store(rows=3, cols=3, days=9, seed=2)
    cfg = ModelConfig(embed=EmbeddingConfig(embed_dim=2, proj_dim=13, heads=1,
                                            ff_hidden=4, temporal_hours=2))
    params = ParamStore.initialize(cfg, store.n, 3, 3, store.slots_per_day, seed=1)
    norms = degree_normalizers(store, range(store.days))
    ha = HistoricalAverage.build(store, range(7))
    return store, cfg, params, ODFlowModel(store, params, cfg, norms, ha)


def test_channel_plan_has_7_7_7_h_slots(setup):
    store, cfg, params, model = setup
    plan = model.channel_plan(store.key_of_abs(8 * 24 + 10))
    assert [kind for kind, _ in plan] == list(DEFAULT_CHANNELS)
    assert [len(keys) for _, keys in plan] == [7, 7, 7, 2]
    # 21 linear slots + h non-linear slots, all distinct here
    all_abs = {store.abs_index(k) for _, keys in plan for k in keys}
    assert len(all_abs) == 23


def test_disabling_nonlinear_channel_removes_h_dependencies(setup):
    store, cfg, params, model = setup
    linear = ModelConfig(embed=cfg.embed, channels=tuple(DEFAULT_CHANNELS[:3]))
    ablated = ODFlowModel(store, params, linear, model.degree_norms, model.ha)
    key = store.key_of_abs(8 * 24 + 10)
    full_slots = {store.abs_index(k) for _, ks in model.channel_plan(key) for k in ks}
    lin_slots = {store.abs_index(k) for _, ks in ablated.channel_plan(key) for k in ks}
    assert len(full_slots - lin_slots) == cfg.embed.temporal_hours
    assert len(ablated.channel_plan(key)) == 3


def test_eligibility_boundary(setup):
    store, cfg, params, model = setup
    # day 7 slot 1 needs slot 24 of day -1 for the previous-hour channel
    assert not model.eligible(store.key_of_abs(7 * 24))
    assert model.eligible(store.key_of_abs(7 * 24 + 1))
    assert model.earliest_eligible() == store.key_of_abs(7 * 24 + 1)


def test_forward_and_predict_agree(setup):
    store, cfg, params, model = setup
    key = store.key_of_abs(8 * 24 + 5)
    delta_t, od_t = model.forward(key)
    delta_p, od_p = model.predict(key)
    assert np.array_equal(delta_p, delta_t.data)
    assert np.array_equal(od_p, od_t.data)
    assert delta_p.shape == (9,)
    assert od_p.shape == (9, 9)
    assert np.all(delta_p >= 0) and np.all(od_p >= 0)


def test_target_slot_carries_no_flow_information(setup):
    store, cfg, params, model = setup
    ctx = model._target_ctx
    assert not ctx.forward_mask.any() and not ctx.backward_mask.any()
    assert np.all(ctx.in_degrees == 0) and np.all(ctx.out_degrees == 0)
    assert ctx.geo_mask.any()   # geography is always there


def test_param_store_shapes_and_determinism(setup):
    store, cfg, params, model = setup
    e = cfg.embed
    assert params["spatial.h0.w_c"].data.shape == (e.proj_dim, e.z)
    assert params["spatial.h0.a"].data.shape == (2 * e.proj_dim,)
    assert params["spatial.w_o"].data.shape == (e.proj_dim, e.proj_dim * e.heads)
    assert params["transfer.gate_od"].data.shape == ()
    again = ParamStore.initialize(cfg, store.n, 3, 3, store.slots_per_day, seed=1)
    for name, tensor in params.items():
        assert np.array_equal(tensor.data, again[name].data), name
    other = ParamStore.initialize(cfg, store.n, 3, 3, store.slots_per_day, seed=2)
    assert not np.array_equal(params["temporal.wq"].data, other["temporal.wq"].data)


def test_proj_dim_must_exceed_raw_width():
    cfg = ModelConfig(embed=EmbeddingConfig(embed_dim=8, proj_dim=42))
    with pytest.raises(ValueError, match="proj_dim"):
        cfg.validate()


def test_checkpoint_preserves_model_behavior(tmp_path, setup):
    store, cfg, params, model = setup
    key = store.key_of_abs(8 * 24 + 7)
    before_d, before_od = model.predict(key)
    path = tmp_path / "model.ckpt"
    meta = {"model_config": cfg.to_dict(), "degree_norms": list(model.degree_norms)}
    save_checkpoint(path, params, meta, model.ha)
    loaded_params, loaded_ha, loaded_meta = load_checkpoint(path)
    rebuilt = ODFlowModel(store, loaded_params,
                          ModelConfig.from_dict(loaded_meta["model_config"]),
                          loaded_meta["degree_norms"], loaded_ha)
    after_d, after_od = rebuilt.predict(key)
    assert np.array_equal(before_d, after_d)
    assert np.array_equal(before_od, after_od)


def test_all_zero_history_pulls_predictions_toward_zero_average():
    # an empty store has HA tables of exactly zero, so the blend halves the
    # raw network output at the initial mid gate
    from conftest import make_grid, store_from_counts

    grid = make_grid(2, 2)
    store = store_from_counts(grid, [np.zeros((4, 4))] * (9 * 24))
    cfg = ModelConfig(embed=EmbeddingConfig(embed_dim=2, proj_dim=13, heads=1,
                                            ff_hidden=4, temporal_hours=1))
    params = ParamStore.initialize(cfg, 4, 2, 2, 24, seed=3)
    ha = HistoricalAverage.build(store, range(7))
    assert np.all(ha.demand_table == 0.0)
    blended = ODFlowModel(store, params, cfg, (0.0, 0.0), ha)
    bare_cfg = ModelConfig(embed=cfg.embed, use_ha=False)
    bare = ODFlowModel(store, params, bare_cfg, (0.0, 0.0), None)
    key = store.key_of_abs(8 * 24 + 5)
    with_ha, _ = blended.predict(key)
    raw, _ = bare.predict(key)
    assert np.allclose(with_ha, 0.5 * raw)


def test_gradients_reach_every_parameter(setup):
    store, cfg, params, model = setup
    key = store.key_of_abs(8 * 24 + 9)
    params.zero_grad()
    with tc.Tape() as tape:
        delta_hat, od_hat = model.forward(key)
        loss = tc.add(tc.sum(delta_hat), tc.sum(od_hat))
    tape.backward(loss)
    for name, p in params.items():
        assert p.grad is not None, name
        assert np.all(np.isfinite(p.grad)), name


# ---------------------------------------------------------------------------
# predict_many: one spatial pass per distinct history slot


def _two_day_keys(store):
    return [store.key_of_abs(a) for a in range(7 * 24 + 20, 8 * 24 + 4)]


def test_predict_many_equals_per_key_forwards_bitwise(setup):
    store, cfg, params, model = setup
    keys = _two_day_keys(store)
    assert len({k.day_index for k in keys}) == 2
    for key, (delta, od) in zip(keys, model.predict_many(keys)):
        delta_t, od_t = model.forward(key)
        alone_d, alone_od = model.predict(key)
        assert np.array_equal(delta, delta_t.data) and np.array_equal(od, od_t.data)
        assert np.array_equal(delta, alone_d) and np.array_equal(od, alone_od)


def test_predict_many_runs_each_history_slot_once(setup, monkeypatch):
    import odflow.model as model_mod

    store, cfg, params, model = setup
    keys = _two_day_keys(store)
    calls = []
    real = model_mod.spatial_layer

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(model_mod, "spatial_layer", counted)
    model.predict_many(keys)
    history = {store.abs_index(k) for key in keys
               for _, slots in model.channel_plan(key) for k in slots}
    assert len(calls) == len(history) + len(keys)
    per_target = sum(len({store.abs_index(k) for _, slots in model.channel_plan(key)
                          for k in slots}) + 1 for key in keys)
    assert len(calls) < per_target


def test_predict_many_refuses_to_run_on_a_tape(setup):
    store, cfg, params, model = setup
    with tc.Tape():
        with pytest.raises(RuntimeError, match="tape"):
            model.predict_many(_two_day_keys(store))
    assert model._shared_spatial is None


def test_predict_many_sees_a_parameter_change(setup):
    store, cfg, params, model = setup
    own = ParamStore({k: tc.parameter(v) for k, v in params.copy_values().items()})
    changed = ODFlowModel(store, own, cfg, model.degree_norms, model.ha)
    keys = _two_day_keys(store)
    changed.predict_many(keys)
    own["spatial.h0.w_s"].data *= 1.5
    fresh_params = ParamStore({k: tc.parameter(v) for k, v in own.copy_values().items()})
    fresh = ODFlowModel(store, fresh_params, cfg, model.degree_norms, model.ha)
    for (d1, od1), (d2, od2) in zip(changed.predict_many(keys), fresh.predict_many(keys)):
        assert np.array_equal(d1, d2) and np.array_equal(od1, od2)
    before = model.predict_many(keys)
    assert not all(np.array_equal(a[1], b[1]) for a, b in zip(before, fresh.predict_many(keys)))


def test_predict_many_drops_its_cache_when_a_forward_fails(setup):
    store, cfg, params, model = setup
    keys = _two_day_keys(store) + [store.key_of_abs(0)]   # day 0 lacks history
    with pytest.raises(InsufficientHistoryError):
        model.predict_many(keys)
    assert model._shared_spatial is None
