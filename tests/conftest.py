"""Shared helpers: tiny grids, synthetic stores, and small parameter sets."""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest

from odflow.flowgraph import GraphStore
from odflow.geogrid import bbox_for_grid, build_grid
from odflow.model import ModelConfig, ParamStore
from odflow.spatial import EmbeddingConfig
from odflow.synthgen import SynthConfig, generate_counts

TINY_EMBED = EmbeddingConfig(embed_dim=2, proj_dim=13, heads=1, ff_hidden=4,
                             temporal_hours=1)


def make_grid(rows, cols, cell_km=2.5):
    return build_grid(bbox_for_grid(rows, cols, cell_km), cell_km)


def store_from_counts(grid, counts, slot_minutes=60, start=date(2024, 1, 1)):
    """GraphStore from a list of dense per-slot count matrices."""
    counts = np.asarray(counts).reshape(-1, grid.n, grid.n)
    return GraphStore(grid, slot_minutes, start, counts.astype(np.int32))


def synthetic_store(rows=3, cols=3, days=9, seed=11, base_rate=0.15,
                    return_frac=0.4, **overrides):
    grid = make_grid(rows, cols)
    n = rows * cols
    cfg = SynthConfig(rows=rows, cols=cols, days=days, seed=seed,
                      base_rate=base_rate, return_frac=return_frac,
                      residential=tuple(range(1, min(cols, n) + 1)),
                      commercial=tuple(range(max(1, n - cols + 1), n + 1)),
                      **overrides)
    counts, _ = generate_counts(cfg)
    return store_from_counts(grid, counts)


def tiny_params(store, cfg=None, seed=0):
    model_cfg = ModelConfig(embed=cfg or TINY_EMBED)
    return ParamStore.initialize(model_cfg, store.n, store.grid.rows,
                                 store.grid.cols, store.slots_per_day, seed)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
