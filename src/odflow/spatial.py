"""Initial node embeddings and the spatial attention layer.

Each cell's initial embedding concatenates five learned categorical vectors
(grid id, row, column, slot of day, day of week) with its normalized in- and
out-degree. The spatial layer projects embeddings, scores each cell against
its forward, backward, and geographical neighbors (pre-weighted by flow
share or inverse distance), normalizes the scores per neighbor class, and
merges the classes by vector addition. Heads are gated, concatenated, and
projected back to the working dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorcore as tc

PREWEIGHT_STABILIZER = 1e-6


@dataclass(frozen=True)
class EmbeddingConfig:
    embed_dim: int = 8     # width of each categorical table
    proj_dim: int = 64     # z': working dimension after projection
    heads: int = 4
    ff_hidden: int = 32    # demand head hidden width
    leaky_slope: float = 0.2
    temporal_hours: int = 6

    @property
    def z(self):
        return 5 * self.embed_dim + 2

    def validate(self):
        if self.proj_dim <= self.z:
            raise ValueError(f"proj_dim must exceed the raw embedding width {self.z}, "
                             f"got {self.proj_dim}")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")

    def to_dict(self):
        return {
            "embed_dim": self.embed_dim, "proj_dim": self.proj_dim,
            "heads": self.heads, "ff_hidden": self.ff_hidden,
            "leaky_slope": self.leaky_slope, "temporal_hours": self.temporal_hours,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(**{k: d[k] for k in
                      ("embed_dim", "proj_dim", "heads", "ff_hidden",
                       "leaky_slope", "temporal_hours")})


# ---------------------------------------------------------------------------
# per-slot context: neighbor masks and pre-weights (constants, no gradients)


@dataclass
class GridContext:
    """Time-independent geography: neighbor mask and inverse-distance weights."""

    geo_mask: np.ndarray    # n x n bool
    gamma: np.ndarray       # n x n, rows of q-neighbors sum to 1

    @classmethod
    def build(cls, dist, geo_sets):
        n = dist.n
        mask = np.zeros((n, n), dtype=bool)
        for i, members in geo_sets.items():
            for j in members:
                mask[i - 1, j - 1] = True
        if np.any(mask & (dist.d == 0.0)):
            raise AssertionError("geographical neighbor at zero distance")
        inv = np.where(mask, np.divide(1.0, dist.d, out=np.zeros_like(dist.d), where=dist.d > 0), 0.0)
        denom = inv.sum(axis=1, keepdims=True)
        gamma = np.divide(inv, denom, out=np.zeros_like(inv), where=denom > 0)
        return cls(mask, gamma)


@dataclass
class SlotContext:
    """Everything the spatial layer needs about one slot besides embeddings."""

    forward_mask: np.ndarray
    backward_mask: np.ndarray
    alpha: np.ndarray       # forward flow fractions
    beta: np.ndarray        # backward flow fractions
    geo_mask: np.ndarray
    gamma: np.ndarray
    in_degrees: np.ndarray
    out_degrees: np.ndarray

    @classmethod
    def build(cls, od: np.ndarray, grid_ctx: GridContext, zero_semantic=False):
        """From a dense OD matrix. With ``zero_semantic`` the flow-derived
        parts are blanked, which is how a prediction target slot (whose OD
        matrix is unknown) enters the model."""
        n = od.shape[0]
        if zero_semantic:
            zmask = np.zeros((n, n), dtype=bool)
            zeros = np.zeros((n, n))
            return cls(zmask, zmask.copy(), zeros, zeros.copy(),
                       grid_ctx.geo_mask, grid_ctx.gamma,
                       np.zeros(n), np.zeros(n))
        offdiag = ~np.eye(n, dtype=bool)
        fmask = (od > 0) & offdiag
        bmask = (od.T > 0) & offdiag
        fflow = np.where(fmask, od, 0.0)
        alpha = fflow / (fflow.sum(axis=1, keepdims=True) + PREWEIGHT_STABILIZER)
        bflow = np.where(bmask, od.T, 0.0)
        beta = bflow / (bflow.sum(axis=1, keepdims=True) + PREWEIGHT_STABILIZER)
        return cls(fmask, bmask, alpha, beta, grid_ctx.geo_mask, grid_ctx.gamma,
                   od.sum(axis=0), od.sum(axis=1))


def preweights(g, dist, geo_sets, i):
    """Pre-weights of cell i's neighbors: (alpha by forward, beta by backward,
    gamma by geographical), each a dict keyed by neighbor cell index.

    Alpha and beta are the neighbor's share of cell i's outgoing/incoming
    flow (stabilized denominator); gamma is normalized inverse distance.
    """
    from .flowgraph import backward_neighbors, forward_neighbors

    od = g.dense()
    fwd = forward_neighbors(g, i)
    bwd = backward_neighbors(g, i)
    fsum = sum(od[i - 1, j - 1] for j in fwd) + PREWEIGHT_STABILIZER
    alpha = {j: od[i - 1, j - 1] / fsum for j in sorted(fwd)}
    bsum = sum(od[j - 1, i - 1] for j in bwd) + PREWEIGHT_STABILIZER
    beta = {j: od[j - 1, i - 1] / bsum for j in sorted(bwd)}
    members = sorted(geo_sets.get(i, ()))
    inv = {}
    for j in members:
        d = dist.distance(i, j)
        if d <= 0:
            raise AssertionError(f"zero distance between distinct cells {i}, {j}")
        inv[j] = 1.0 / d
    total = sum(inv.values())
    gamma = {j: v / total for j, v in inv.items()}
    return alpha, beta, gamma


# ---------------------------------------------------------------------------
# embeddings


def _table(params, name):
    return params[f"embed.{name}"]


def initial_embedding(params, cfg: EmbeddingConfig, grid, i, key, degs, norms):
    """Embedding vector (length z) of one cell in one slot.

    ``degs`` is the cell's (in_degree, out_degree); ``norms`` the training
    maxima used for normalization.
    """
    cell = grid.cell(i)
    slot_table = _table(params, "slot")
    if not 1 <= key.slot <= slot_table.shape[0]:
        raise ValueError(f"slot {key.slot} outside table of {slot_table.shape[0]} slots")
    if not 0 <= key.day_of_week <= 6:
        raise ValueError(f"day_of_week {key.day_of_week} outside [0, 6]")
    max_in, max_out = norms
    e = cfg.embed_dim
    parts = [
        tc.reshape(tc.rows(_table(params, "grid"), [i - 1]), (e,)),
        tc.reshape(tc.rows(_table(params, "row"), [cell.row]), (e,)),
        tc.reshape(tc.rows(_table(params, "col"), [cell.col]), (e,)),
        tc.reshape(tc.rows(slot_table, [key.slot - 1]), (e,)),
        tc.reshape(tc.rows(_table(params, "dow"), [key.day_of_week]), (e,)),
        tc.constant([degs[0] / (max_in + 1.0)]),
        tc.constant([degs[1] / (max_out + 1.0)]),
    ]
    return tc.concat(parts, axis=0)


def build_initial_embeddings(params, cfg: EmbeddingConfig, grid, key,
                             in_deg, out_deg, norms):
    """Stacked initial embeddings for all n cells of one slot (n x z)."""
    n = grid.n
    slot_table = _table(params, "slot")
    if not 1 <= key.slot <= slot_table.shape[0]:
        raise ValueError(f"slot {key.slot} outside table of {slot_table.shape[0]} slots")
    if not 0 <= key.day_of_week <= 6:
        raise ValueError(f"day_of_week {key.day_of_week} outside [0, 6]")
    rows_idx = np.array([(i // grid.cols) for i in range(n)])
    cols_idx = np.array([(i % grid.cols) for i in range(n)])
    max_in, max_out = norms
    parts = [
        tc.rows(_table(params, "grid"), np.arange(n)),
        tc.rows(_table(params, "row"), rows_idx),
        tc.rows(_table(params, "col"), cols_idx),
        tc.rows(_table(params, "slot"), np.full(n, key.slot - 1)),
        tc.rows(_table(params, "dow"), np.full(n, key.day_of_week)),
        tc.constant(np.asarray(in_deg, dtype=np.float64).reshape(n, 1) / (max_in + 1.0)),
        tc.constant(np.asarray(out_deg, dtype=np.float64).reshape(n, 1) / (max_out + 1.0)),
    ]
    return tc.concat(parts, axis=1)


# ---------------------------------------------------------------------------
# attention


def attention_score(a, e_i_proj, e_j_preweighted, slope=0.2):
    """Affinity of one projected neighbor with the reference cell: the
    attention coefficient applied to their concatenation, through leaky ReLU."""
    y = tc.concat([e_i_proj, e_j_preweighted], axis=0)
    return tc.leaky_relu(tc.matmul(a, y), slope)


def _class_weights(u, v, preweight, mask, slope):
    """Normalized attention weights over one neighbor class (n x n):
    score[i, j] = u[i] + preweight[i, j] * v[j], with ``u`` an (n, 1) column.

    Rows with an empty class come out all zero, so the class contributes
    nothing to the merge.
    """
    score = tc.add(tc.mul(preweight, v), u)
    return tc.softmax_rows(tc.leaky_relu(score, slope), mask)


def spatial_layer(params, cfg: EmbeddingConfig, ctx: SlotContext, embeddings, sink=None):
    """One pass of pre-weighted multi-head attention -> embeddings (n x z').

    ``sink``, when given, collects every normalized neighbor-class weight
    matrix (with its membership mask) under the key "spatial".
    """
    zp = cfg.proj_dim
    gates = params["spatial.head_gates"]
    head_outputs = []
    for h in range(cfg.heads):
        w_c = params[f"spatial.h{h}.w_c"]
        w_s = params[f"spatial.h{h}.w_s"]
        a = params[f"spatial.h{h}.a"]
        proj = tc.matmul(embeddings, tc.transpose(w_c))
        a_self = tc.rows(a, np.arange(zp))
        a_neigh = tc.rows(a, np.arange(zp, 2 * zp))
        u = tc.reshape(tc.matmul(proj, a_self), (-1, 1))
        v = tc.matmul(proj, a_neigh)
        w_f = _class_weights(u, v, ctx.alpha, ctx.forward_mask, cfg.leaky_slope)
        w_b = _class_weights(u, v, ctx.beta, ctx.backward_mask, cfg.leaky_slope)
        w_q = _class_weights(u, v, ctx.gamma, ctx.geo_mask, cfg.leaky_slope)
        if sink is not None:
            sink.setdefault("spatial", []).extend([
                (w_f.data, ctx.forward_mask), (w_b.data, ctx.backward_mask),
                (w_q.data, ctx.geo_mask)])
        merged = tc.matmul(proj, tc.transpose(w_s))
        attn = tc.add(tc.add(w_f, w_b), w_q)
        head = tc.add(merged, tc.matmul(attn, merged))
        gate = tc.sigmoid(tc.rows(gates, [h]))
        head_outputs.append(tc.mul(head, gate))
    stacked = tc.concat(head_outputs, axis=1) if len(head_outputs) > 1 else head_outputs[0]
    return tc.matmul(stacked, tc.transpose(params["spatial.w_o"]))
