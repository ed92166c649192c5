"""The composed prediction model: parameters, forward pass, checkpoints.

A forward pass for one target slot takes the spatial embedding of every
historical slot the temporal channels need, lifts the target itself through
the spatial layer with an all-zero OD matrix (its flow is what we are
predicting, so only geography and calendar features enter), fuses the
channels, and produces the demand vector and OD matrix through the transfer
heads. A taped forward runs the spatial layer once per distinct history
slot; ``predict_many`` shares each slot's embedding across all its targets,
since at fixed parameters it is a pure function of the slot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import tensorcore as tc
from . import transfer
from .geogrid import build_distance_graph, default_geo_threshold_km, geographical_neighbors
from .spatial import (EmbeddingConfig, GridContext, SlotContext,
                      build_initial_embeddings, spatial_layer)
from .temporal import (DEFAULT_CHANNELS, ChannelSpec, channel_slots,
                       temporal_layer)


@dataclass(frozen=True)
class ModelConfig:
    embed: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    channels: tuple = DEFAULT_CHANNELS
    use_ha: bool = True
    geo_threshold_km: float = 0.0   # 0 -> derived from the grid's cell length

    def validate(self):
        self.embed.validate()
        if not self.channels:
            raise ValueError("at least one temporal channel must be enabled")

    def to_dict(self):
        return {"embed": self.embed.to_dict(), "channels": list(self.channels),
                "use_ha": self.use_ha, "geo_threshold_km": self.geo_threshold_km}

    @classmethod
    def from_dict(cls, d):
        return cls(EmbeddingConfig.from_dict(d["embed"]), tuple(d["channels"]),
                   d["use_ha"], d.get("geo_threshold_km", 0.0))


def param_shapes(cfg: ModelConfig, n, grid_rows, grid_cols, slots_per_day):
    """{name: shape} of every learnable tensor of the model ``cfg`` describes."""
    e = cfg.embed
    zp, ed, heads, hidden = e.proj_dim, e.embed_dim, e.heads, e.ff_hidden
    shapes = {
        "embed.grid": (n, ed),
        "embed.row": (grid_rows, ed),
        "embed.col": (grid_cols, ed),
        "embed.slot": (slots_per_day, ed),
        "embed.dow": (7, ed),
        "spatial.head_gates": (heads,),
        "spatial.w_o": (zp, zp * heads),
        "temporal.wq": (zp, zp), "temporal.wk": (zp, zp), "temporal.wv": (zp, zp),
        "fusion.wq": (zp, zp), "fusion.wk": (zp, zp), "fusion.wv": (zp, zp),
        "transfer.w_p": (zp, zp),
        "transfer.a_p": (2 * zp,),
        "transfer.ff_w1": (hidden, zp),
        "transfer.ff_b1": (hidden,),
        "transfer.ff_w2": (1, hidden),
        "transfer.ff_b2": (1,),
        "transfer.gate_demand": (),
        "transfer.gate_od": (),
    }
    for h in range(heads):
        shapes[f"spatial.h{h}.w_c"] = (zp, e.z)
        shapes[f"spatial.h{h}.w_s"] = (zp, zp)
        shapes[f"spatial.h{h}.a"] = (2 * zp,)
    return shapes


class ParamStore:
    """All learnable tensors by name, with gradient buffers."""

    def __init__(self, tensors):
        self.tensors = dict(tensors)

    def __getitem__(self, name) -> tc.Tensor:
        return self.tensors[name]

    def __contains__(self, name):
        return name in self.tensors

    def names(self):
        return sorted(self.tensors)

    def items(self):
        return [(k, self.tensors[k]) for k in self.names()]

    def zero_grad(self):
        for t in self.tensors.values():
            t.zero_grad()

    def copy_values(self):
        return {k: t.data.copy() for k, t in self.tensors.items()}

    def load_values(self, values):
        for k, t in self.tensors.items():
            t.data[...] = values[k]

    def count(self):
        return sum(t.data.size for t in self.tensors.values())

    @classmethod
    def initialize(cls, cfg: ModelConfig, n, grid_rows, grid_cols, slots_per_day, seed):
        """Seeded init: matrices uniform in +/-sqrt(6 / (fan_in + fan_out)),
        drawn in sorted-name order; gates and biases start at zero."""
        shapes = param_shapes(cfg, n, grid_rows, grid_cols, slots_per_day)
        zero_init = {"spatial.head_gates", "transfer.ff_b1", "transfer.ff_b2",
                     "transfer.gate_demand", "transfer.gate_od"}
        rng = np.random.Generator(np.random.PCG64([seed, 0]))
        tensors = {}
        for name in sorted(shapes):
            shape = shapes[name]
            if name in zero_init:
                data = np.zeros(shape)
            else:
                fan_out = shape[0] if shape else 1
                fan_in = shape[1] if len(shape) > 1 else 1
                if len(shape) == 1:
                    fan_in, fan_out = shape[0], 1
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                data = rng.uniform(-limit, limit, size=shape)
            tensors[name] = tc.parameter(data, name=name)
        return cls(tensors)


class ODFlowModel:
    """Forward passes over a graph store for arbitrary target slots."""

    def __init__(self, store, params: ParamStore, cfg: ModelConfig,
                 degree_norms, ha=None):
        cfg.validate()
        self.store = store
        self.params = params
        self.cfg = cfg
        self.degree_norms = tuple(degree_norms)
        self.ha = ha
        threshold = cfg.geo_threshold_km or default_geo_threshold_km(store.grid.cell_km)
        dist = build_distance_graph(store.grid)
        geo_sets = geographical_neighbors(store.grid, dist, threshold)
        self.grid_ctx = GridContext.build(dist, geo_sets)
        self._target_ctx = SlotContext.build(
            np.zeros((store.n, store.n)), self.grid_ctx, zero_semantic=True)
        # per-slot contexts are pure functions of the store, never of params
        self._ctx_cache = {}
        # abs slot index -> spatial embedding, shared by the forwards of one
        # predict_many call; None outside it
        self._shared_spatial = None

    def channel_plan(self, target_key):
        """Enabled channels with their resolved historical slot keys."""
        h = self.cfg.embed.temporal_hours
        return [(kind, channel_slots(target_key, ChannelSpec(kind, h), self.store.slots_per_day))
                for kind in self.cfg.channels]

    def eligible(self, target_key) -> bool:
        try:
            plan = self.channel_plan(target_key)
        except ValueError:
            return False
        slots = len(self.store.counts)
        return all(0 <= self.store.abs_index(k) < slots for _, keys in plan for k in keys)

    def earliest_eligible(self):
        keys = map(self.store.key_of_abs, range(len(self.store.counts)))
        return next((key for key in keys if self.eligible(key)), None)

    def _slot_context(self, key) -> SlotContext:
        abs_idx = self.store.abs_index(key)
        ctx = self._ctx_cache.get(abs_idx)
        if ctx is None:
            ctx = SlotContext.build(self.store.od(key), self.grid_ctx)
            self._ctx_cache[abs_idx] = ctx
        return ctx

    def _spatial_for(self, key, sink=None):
        ctx = self._slot_context(key)
        emb = build_initial_embeddings(
            self.params.tensors, self.cfg.embed, self.store.grid, key,
            ctx.in_degrees, ctx.out_degrees, self.degree_norms)
        return spatial_layer(self.params.tensors, self.cfg.embed, ctx, emb, sink)

    def _target_embedding(self, key, sink=None):
        emb = build_initial_embeddings(
            self.params.tensors, self.cfg.embed, self.store.grid, key,
            np.zeros(self.store.n), np.zeros(self.store.n), self.degree_norms)
        return spatial_layer(self.params.tensors, self.cfg.embed, self._target_ctx,
                             emb, sink)

    def forward(self, target_key, sink=None):
        """Predict one slot: returns (demand n-vector, OD n x n matrix) tensors.

        Each distinct history slot's spatial pass runs once per forward, or
        once per ``predict_many`` call while one is in progress. ``sink``
        optionally collects every attention weight matrix computed along the
        way, keyed by layer kind; a history slot whose embedding was reused
        adds none.
        """
        plan = self.channel_plan(target_key)
        cache = {} if self._shared_spatial is None else self._shared_spatial
        per_channel = []
        for kind, keys in plan:
            hists = []
            for k in keys:
                a = self.store.abs_index(k)
                if a not in cache:
                    cache[a] = self._spatial_for(k, sink)
                hists.append(cache[a])
            per_channel.append((kind, hists))
        e_target = self._target_embedding(target_key, sink)
        e_final = temporal_layer(self.params.tensors, e_target, per_channel, sink)
        slope = self.cfg.embed.leaky_slope
        ha_demand = self.ha.demand_of(target_key) if (self.use_ha and self.ha) else None
        ha_od = self.ha.od_of(target_key) if (self.use_ha and self.ha) else None
        delta_hat = transfer.demand_head(self.params.tensors, e_final, ha_demand, slope)
        probs = transfer.transfer_probabilities(self.params.tensors, e_final, slope, sink)
        od_hat = transfer.compose_od(self.params.tensors, delta_hat, probs, ha_od)
        return delta_hat, od_hat

    @property
    def use_ha(self):
        return self.cfg.use_ha

    def predict(self, target_key):
        """Inference-only forward: (demand, OD) plain arrays, no tape."""
        return self.predict_many([target_key])[0]

    def predict_many(self, target_keys):
        """Inference-only forwards: one (demand, OD) array pair per key.

        Within the call each distinct history slot's spatial pass runs once
        and is shared by every target that needs it. The shared embeddings
        live only for this call, so a later parameter change is always seen.
        """
        if tc.tape_active():
            raise RuntimeError("predict_many reuses untaped embeddings; "
                               "it cannot run while a tape is recording")
        self._shared_spatial = {}
        try:
            outputs = []
            for key in target_keys:
                delta_hat, od_hat = self.forward(key)
                outputs.append((delta_hat.data.copy(), od_hat.data.copy()))
            return outputs
        finally:
            self._shared_spatial = None


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: ParamStore, meta, ha=None):
    tensors = {k: t.data for k, t in params.items()}
    if ha is not None:
        tensors.update(ha.to_tensors())
    tc.save_tensors(path, tensors, meta=meta)


def open_model(source, store):
    """A trained model on a store -> (ODFlowModel, meta). ``source`` is a
    checkpoint path or an in-memory TrainResult. Raises ValueError when its
    grid or slot length differs from the store's, or when a parameter is
    missing, unexpected or shaped other than its model config needs. The
    historical-average tables are attached even when the model does not
    blend with them, since evaluation scores them too."""
    if isinstance(source, (str, os.PathLike)):
        params, ha, meta = load_checkpoint(source)
    else:
        params, ha, meta = source.params, source.ha, source.meta
    if meta["grid"] != store.grid.to_dict():
        raise ValueError("checkpoint grid does not match the graph store grid: "
                         f"{meta['grid']} vs {store.grid.to_dict()}")
    if meta["slot_minutes"] != store.slot_minutes:
        raise ValueError(f"checkpoint slots of {meta['slot_minutes']} minutes do not match "
                         f"the store's {store.slot_minutes}")
    model_cfg = ModelConfig.from_dict(meta["model_config"])
    shapes = param_shapes(model_cfg, store.n, store.grid.rows, store.grid.cols,
                          store.slots_per_day)
    for name in sorted(set(shapes) | set(params.names())):
        if name not in params:
            raise ValueError(f"checkpoint lacks parameter {name}")
        if name not in shapes:
            raise ValueError(f"checkpoint has parameter {name}, which its model config "
                             "does not use")
        if params[name].shape != shapes[name]:
            raise ValueError(f"checkpoint parameter {name} has shape {params[name].shape}; "
                             f"its model config needs {shapes[name]}")
    return ODFlowModel(store, params, model_cfg, meta["degree_norms"], ha), meta


def load_checkpoint(path):
    tensors, meta = tc.load_tensors(path)
    ha = None
    if "ha.demand" in tensors:
        n = tensors["ha.demand"].shape[0]
        s_per_day = tensors["ha.demand"].shape[1]
        ha = transfer.HistoricalAverage.from_tensors(tensors, n, s_per_day)
        tensors = {k: v for k, v in tensors.items() if not k.startswith("ha.")}
    params = ParamStore({k: tc.parameter(v, name=k) for k, v in tensors.items()})
    return params, ha, meta
