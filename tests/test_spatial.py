"""Embeddings, pre-weights, attention scores, and the spatial layer."""

import numpy as np
import pytest

from conftest import TINY_EMBED, make_grid, store_from_counts, tiny_params
from odflow import tensorcore as tc
from odflow.flowgraph import SlotGraph
from odflow.geogrid import build_distance_graph, default_geo_threshold_km, geographical_neighbors
from odflow.ingest import SlotKey
from odflow.spatial import (PREWEIGHT_STABILIZER, EmbeddingConfig, GridContext,
                            SlotContext, _class_weights, attention_score,
                            build_initial_embeddings, initial_embedding,
                            preweights, spatial_layer)

KEY = SlotKey(0, 9, 2)


def _setup(rows=2, cols=2, cfg=TINY_EMBED, seed=3):
    grid = make_grid(rows, cols)
    store = store_from_counts(grid, [np.zeros((grid.n, grid.n))])
    params = tiny_params(store, cfg, seed=seed)
    dist = build_distance_graph(grid)
    geo = geographical_neighbors(grid, dist, default_geo_threshold_km(grid.cell_km))
    return grid, params.tensors, GridContext.build(dist, geo)


# ---------------------------------------------------------------------------
# initial embeddings


def test_same_slot_embeddings_share_slot_and_dow_components():
    grid, params, _ = _setup()
    e = TINY_EMBED.embed_dim
    e1 = initial_embedding(params, TINY_EMBED, grid, 1, KEY, (0, 0), (4.0, 4.0))
    e2 = initial_embedding(params, TINY_EMBED, grid, 4, KEY, (0, 0), (4.0, 4.0))
    # grid id, row, and col parts differ; slot, dow, and degree parts agree
    assert not np.allclose(e1.data[:3 * e], e2.data[:3 * e])
    assert np.array_equal(e1.data[3 * e:], e2.data[3 * e:])


def test_zero_degree_components_are_exactly_zero():
    grid, params, _ = _setup()
    vec = initial_embedding(params, TINY_EMBED, grid, 2, KEY, (0, 0), (7.0, 3.0))
    assert vec.data[-2] == 0.0 and vec.data[-1] == 0.0


def test_default_embedding_length_is_42():
    assert EmbeddingConfig().z == 42
    grid, _, _ = _setup()
    cfg = EmbeddingConfig()
    store = store_from_counts(grid, [np.zeros((grid.n, grid.n))])
    params = tiny_params(store, cfg).tensors
    vec = initial_embedding(params, cfg, grid, 1, KEY, (2, 5), (9.0, 9.0))
    assert vec.shape == (42,)


def test_degree_normalization_uses_training_max_plus_one():
    grid, params, _ = _setup()
    vec = initial_embedding(params, TINY_EMBED, grid, 1, KEY, (3, 6), (9.0, 11.0))
    assert vec.data[-2] == pytest.approx(3 / 10.0)
    assert vec.data[-1] == pytest.approx(6 / 12.0)


def test_unknown_categorical_codes_error():
    grid, params, _ = _setup()
    with pytest.raises(ValueError, match="slot"):
        initial_embedding(params, TINY_EMBED, grid, 1, SlotKey(0, 25, 0), (0, 0), (1, 1))
    with pytest.raises(ValueError, match="day_of_week"):
        build_initial_embeddings(params, TINY_EMBED, grid, SlotKey(0, 1, 9),
                                 np.zeros(grid.n), np.zeros(grid.n), (1, 1))


def test_stacked_embeddings_match_per_cell_builder():
    grid, params, _ = _setup()
    ind = np.array([1.0, 0.0, 2.0, 5.0])
    outd = np.array([0.0, 3.0, 1.0, 1.0])
    stacked = build_initial_embeddings(params, TINY_EMBED, grid, KEY, ind, outd, (5.0, 5.0))
    for i in range(1, grid.n + 1):
        single = initial_embedding(params, TINY_EMBED, grid, i, KEY,
                                   (ind[i - 1], outd[i - 1]), (5.0, 5.0))
        assert np.array_equal(stacked.data[i - 1], single.data)


# ---------------------------------------------------------------------------
# pre-weights


def _geo(grid):
    dist = build_distance_graph(grid)
    return dist, geographical_neighbors(grid, dist, default_geo_threshold_km(grid.cell_km))


def test_single_forward_neighbor_weight_is_nearly_one():
    grid = make_grid(1, 3)
    g = SlotGraph(KEY, 3, [(1, 2, 5)])
    dist, geo = _geo(grid)
    alpha, beta, gamma = preweights(g, dist, geo, 1)
    assert alpha == {2: pytest.approx(5.0 / (5.0 + PREWEIGHT_STABILIZER))}
    assert beta == {}


def test_two_forward_neighbors_split_by_flow():
    grid = make_grid(1, 3)
    g = SlotGraph(KEY, 3, [(1, 2, 1), (1, 3, 3)])
    dist, geo = _geo(grid)
    alpha, _, _ = preweights(g, dist, geo, 1)
    assert alpha[2] == pytest.approx(0.25, abs=1e-6)
    assert alpha[3] == pytest.approx(0.75, abs=1e-6)


def test_backward_preweights_use_incoming_flow():
    grid = make_grid(1, 3)
    g = SlotGraph(KEY, 3, [(2, 1, 1), (3, 1, 4)])
    dist, geo = _geo(grid)
    _, beta, _ = preweights(g, dist, geo, 1)
    assert beta[2] == pytest.approx(0.2, abs=1e-6)
    assert beta[3] == pytest.approx(0.8, abs=1e-6)


def test_equidistant_geographical_neighbors_split_evenly():
    grid = make_grid(1, 3)
    g = SlotGraph(KEY, 3, [])
    dist, geo = _geo(grid)
    _, _, gamma = preweights(g, dist, geo, 2)
    assert set(gamma) == {1, 3}
    assert gamma[1] == pytest.approx(0.5)
    assert gamma[3] == pytest.approx(0.5)


def test_preweight_monotone_in_flow():
    grid = make_grid(1, 3)
    dist, geo = _geo(grid)
    low = preweights(SlotGraph(KEY, 3, [(1, 2, 2), (1, 3, 3)]), dist, geo, 1)[0]
    high = preweights(SlotGraph(KEY, 3, [(1, 2, 4), (1, 3, 3)]), dist, geo, 1)[0]
    assert high[2] >= low[2]


def test_dense_context_matches_per_cell_preweights(rng):
    grid = make_grid(3, 3)
    dist, geo = _geo(grid)
    grid_ctx = GridContext.build(dist, geo)
    od = (rng.uniform(size=(9, 9)) < 0.4) * rng.integers(1, 6, size=(9, 9))
    g = SlotGraph(KEY, 9, [(i + 1, j + 1, int(od[i, j]))
                           for i in range(9) for j in range(9) if od[i, j] > 0])
    ctx = SlotContext.build(g.dense(), grid_ctx)
    for i in range(1, 10):
        alpha, beta, gamma = preweights(g, dist, geo, i)
        for j in range(1, 10):
            assert ctx.alpha[i - 1, j - 1] == pytest.approx(alpha.get(j, 0.0), abs=1e-12)
            assert ctx.beta[i - 1, j - 1] == pytest.approx(beta.get(j, 0.0), abs=1e-12)
            assert ctx.gamma[i - 1, j - 1] == pytest.approx(gamma.get(j, 0.0), abs=1e-12)


# ---------------------------------------------------------------------------
# attention scores


def test_zero_coefficient_scores_zero(rng):
    a = tc.constant(np.zeros(4))
    e_i = tc.constant(rng.normal(size=2))
    e_j = tc.constant(rng.normal(size=2))
    assert attention_score(a, e_i, e_j).data == 0.0


def test_hand_two_dimensional_score():
    a = tc.constant([1.0, 0.0, 0.0, 1.0])
    e_i = tc.constant([2.0, -1.0])
    e_j = tc.constant([0.5, -3.0])
    # a.T [e_i ; e_j] = 2 + (-3) = -1, through leaky relu with slope 0.2
    assert attention_score(a, e_i, e_j).data == pytest.approx(-0.2)
    assert attention_score(a, e_i, tc.constant([0.5, 3.0])).data == pytest.approx(5.0)


def test_preweight_scales_neighbor_contribution_linearly(rng):
    a = rng.normal(size=6)
    e_i = rng.normal(size=3)
    e_j = rng.normal(size=3)
    base = a[:3] @ e_i

    def pre_activation(scale):
        return base + a[3:] @ (scale * e_j)

    delta1 = pre_activation(1.0) - pre_activation(0.0)
    delta2 = pre_activation(2.0) - pre_activation(0.0)
    assert delta2 == pytest.approx(2 * delta1)


# ---------------------------------------------------------------------------
# spatial layer


def _layer_inputs(rng, rows=3, cols=3, cfg=TINY_EMBED, od=None, seed=3):
    grid, params, grid_ctx = _setup(rows, cols, cfg, seed)
    n = grid.n
    if od is None:
        od = (rng.uniform(size=(n, n)) < 0.35) * rng.integers(1, 6, size=(n, n)).astype(float)
    ctx = SlotContext.build(np.asarray(od, dtype=float), grid_ctx)
    emb = build_initial_embeddings(params, cfg, grid, KEY,
                                   ctx.in_degrees, ctx.out_degrees, (9.0, 9.0))
    return grid, params, ctx, emb


def numpy_spatial_oracle(params, cfg, ctx, E):
    """Per-cell reimplementation of the layer in plain numpy."""
    n = E.shape[0]
    slope = cfg.leaky_slope

    def lrelu(x):
        return np.where(x > 0, x, slope * x)

    heads = []
    for h in range(cfg.heads):
        w_c = params[f"spatial.h{h}.w_c"].data
        w_s = params[f"spatial.h{h}.w_s"].data
        a = params[f"spatial.h{h}.a"].data
        proj = E @ w_c.T
        out = np.zeros((n, cfg.proj_dim))
        for i in range(n):
            merged = w_s @ proj[i]
            for mask, pw in ((ctx.forward_mask, ctx.alpha),
                             (ctx.backward_mask, ctx.beta),
                             (ctx.geo_mask, ctx.gamma)):
                members = [j for j in range(n) if mask[i, j]]
                if not members:
                    continue
                scores = np.array([
                    lrelu(a @ np.concatenate([proj[i], pw[i, j] * proj[j]]))
                    for j in members])
                weights = np.exp(scores - scores.max())
                weights /= weights.sum()
                for w, j in zip(weights, members):
                    merged = merged + w * (w_s @ proj[j])
            out[i] = merged
        gate = 1.0 / (1.0 + np.exp(-params["spatial.head_gates"].data[h]))
        heads.append(gate * out)
    stacked = np.concatenate(heads, axis=1)
    return stacked @ params["spatial.w_o"].data.T


def test_layer_matches_per_cell_numpy_oracle(rng):
    cfg = EmbeddingConfig(embed_dim=2, proj_dim=14, heads=2, ff_hidden=4)
    grid, params, ctx, emb = _layer_inputs(rng, cfg=cfg)
    out = spatial_layer(params, cfg, ctx, emb)
    expected = numpy_spatial_oracle(params, cfg, ctx, emb.data)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_isolated_cell_reduces_to_self_projection():
    grid, params, grid_ctx = _setup(1, 1)
    ctx = SlotContext.build(np.zeros((1, 1)), grid_ctx)
    emb = build_initial_embeddings(params, TINY_EMBED, grid, KEY,
                                   np.zeros(1), np.zeros(1), (1.0, 1.0))
    out = spatial_layer(params, TINY_EMBED, ctx, emb)
    w_c = params["spatial.h0.w_c"].data
    w_s = params["spatial.h0.w_s"].data
    gate = 1.0 / (1.0 + np.exp(-params["spatial.head_gates"].data[0]))
    expected = gate * (w_s @ (w_c @ emb.data[0])) @ params["spatial.w_o"].data.T
    assert np.allclose(out.data[0], expected, atol=1e-12)


def test_singleton_class_softmax_weight_is_one(rng):
    u = tc.constant(rng.normal(size=(3, 1)))
    v = tc.constant(rng.normal(size=3))
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 2] = True
    weights = _class_weights(u, v, rng.uniform(size=(3, 3)), mask, 0.2)
    assert weights.data[0, 2] == 1.0
    assert np.all(weights.data[1:] == 0.0)


def test_class_weights_rows_sum_to_one(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        u = tc.constant(rng.normal(size=(n, 1)))
        v = tc.constant(rng.normal(size=n))
        mask = rng.uniform(size=(n, n)) < 0.5
        weights = _class_weights(u, v, rng.uniform(size=(n, n)), mask, 0.2)
        sums = weights.data.sum(axis=1)
        for i in range(n):
            if mask[i].any():
                assert abs(sums[i] - 1.0) < 1e-9
            else:
                assert sums[i] == 0.0


def test_neighbor_storage_order_does_not_change_output(rng):
    grid, params, grid_ctx = _setup(3, 3)
    n = grid.n
    triplets = [(int(i), int(j), int(w)) for i, j, w in
                zip(rng.integers(1, n + 1, 30), rng.integers(1, n + 1, 30),
                    rng.integers(1, 5, 30))]
    g1 = SlotGraph(KEY, n, list(triplets))
    shuffled = list(triplets)
    rng.shuffle(shuffled)
    g2 = SlotGraph(KEY, n, shuffled)

    outs = []
    for g in (g1, g2):
        ctx = SlotContext.build(g.dense(), grid_ctx)
        emb = build_initial_embeddings(params, TINY_EMBED, grid, KEY,
                                       ctx.in_degrees, ctx.out_degrees, (9.0, 9.0))
        outs.append(spatial_layer(params, TINY_EMBED, ctx, emb).data)
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-10


def test_layer_is_permutation_equivariant(rng):
    cfg = EmbeddingConfig(embed_dim=2, proj_dim=14, heads=2, ff_hidden=4)
    grid, params, ctx, emb = _layer_inputs(rng, cfg=cfg)
    n = grid.n
    out = spatial_layer(params, cfg, ctx, emb).data

    perm = rng.permutation(n)
    P = np.eye(n)[perm]

    def conj(m):
        return P @ m @ P.T

    permuted_ctx = SlotContext(
        forward_mask=conj(ctx.forward_mask).astype(bool),
        backward_mask=conj(ctx.backward_mask).astype(bool),
        alpha=conj(ctx.alpha), beta=conj(ctx.beta),
        geo_mask=conj(ctx.geo_mask).astype(bool), gamma=conj(ctx.gamma),
        in_degrees=ctx.in_degrees[perm], out_degrees=ctx.out_degrees[perm])
    permuted_emb = tc.constant(emb.data[perm])
    out_perm = spatial_layer(params, cfg, permuted_ctx, permuted_emb).data
    assert np.allclose(out_perm, out[perm], atol=1e-10)


def test_all_spatial_parameters_receive_finite_gradients(rng):
    cfg = EmbeddingConfig(embed_dim=2, proj_dim=14, heads=2, ff_hidden=4)
    grid, params, ctx, emb_unused = _layer_inputs(rng, cfg=cfg)
    with tc.Tape() as tape:
        emb = build_initial_embeddings(params, cfg, grid, KEY,
                                       ctx.in_degrees, ctx.out_degrees, (9.0, 9.0))
        out = spatial_layer(params, cfg, ctx, emb)
        loss = tc.smooth_l1(out, tc.constant(rng.normal(size=out.shape)))
    tape.backward(loss)
    for name, p in params.items():
        if name.startswith(("spatial.", "embed.grid", "embed.row", "embed.col")):
            assert p.grad is not None, name
            assert np.all(np.isfinite(p.grad)), name
            assert np.any(p.grad != 0.0), name
