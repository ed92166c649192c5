"""Minimal dense-tensor math with reverse-mode differentiation.

Everything is float64. Ops record onto the active :class:`Tape` (a Wengert
list); ``tape.backward(loss)`` walks it once in reverse and accumulates
gradients into ``Tensor.grad`` buffers. Outside a tape, ops are plain numpy
forward computations, which is what evaluation uses.

Only the operations the prediction model needs are provided. ``add`` and
``mul`` broadcast their operands by numpy's rules, and their gradients are
summed back over the broadcast axes, so call sites never pick an op by shape.
"""

from __future__ import annotations

import functools
import json

import numpy as np


class ShapeError(ValueError):
    pass


def _check(cond, op, *shapes):
    if not cond:
        raise ShapeError(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


_ACTIVE_TAPE = None


class Tensor:
    """A float64 array plus an optional gradient buffer of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "name")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive ops; creation order is topological order."""

    def __init__(self):
        self._nodes = []
        self._used = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(param) into every reachable parameter's .grad.

        The loss must be a scalar recorded on this tape; a second call
        without a fresh tape is an error.
        """
        if self._used:
            raise RuntimeError("backward already ran on this tape; build a new tape")
        if loss.data.shape != ():
            raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        if not any(n is loss for n in self._nodes):
            raise RuntimeError("backward: loss is not on this tape")
        self._used = True
        loss.grad = np.ones((), dtype=np.float64)
        for node in reversed(self._nodes):
            if node.grad is None or node._vjp is None:
                continue
            node._vjp(node.grad)
        # transient node buffers are dropped; leaf gradients stay
        for node in self._nodes:
            node.grad = None


def tape_active() -> bool:
    """Whether ops are being recorded onto a tape right now."""
    return _ACTIVE_TAPE is not None


def _record(out: Tensor, parents, vjp):
    """Attach autodiff metadata when recording is active and useful."""
    tape = _ACTIVE_TAPE
    if tape is None:
        return out
    for p in parents:
        if p.requires_grad:
            break
    else:
        return out
    out.requires_grad = True
    out._parents = parents
    out._vjp = vjp
    tape._nodes.append(out)
    return out


def constant(data, name=None):
    return Tensor(data, requires_grad=False, name=name)


def parameter(data, name=None):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


# ---------------------------------------------------------------------------
# primitives


def _as_tensor(x):
    return x if isinstance(x, Tensor) else constant(x)


def _broadcast(op, fn, a, b):
    try:
        return Tensor(fn(a.data, b.data))
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.data.shape} vs {b.data.shape}") from None


@functools.lru_cache(maxsize=None)   # a training step repeats a few shape pairs ~1,000 times
def _broadcast_axes(out_shape, shape):
    """Axes of ``out_shape`` along which an operand of ``shape`` was broadcast."""
    lead = len(out_shape) - len(shape)
    return tuple(range(lead)) + tuple(
        lead + i for i, size in enumerate(shape) if size == 1 and out_shape[lead + i] != 1)


def _unbroadcast(g, shape):
    """Sum a gradient of a broadcast result back to one operand's shape."""
    if g.shape == shape:
        return g
    return g.sum(axis=_broadcast_axes(g.shape, shape)).reshape(shape)


def add(a, b) -> Tensor:
    """Elementwise sum; operands broadcast by numpy's rules, and a Python
    scalar or array operand is a constant."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = _broadcast("add", np.add, a, b)

    def vjp(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return _record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    """Elementwise product, broadcasting as :func:`add` does."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = _broadcast("mul", np.multiply, a, b)

    def vjp(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    an, bn = a.data.ndim, b.data.ndim
    _check(1 <= an <= 2 and 1 <= bn <= 2, "matmul", a.data.shape, b.data.shape)
    _check(a.data.shape[-1] == b.data.shape[0], "matmul", a.data.shape, b.data.shape)
    out = Tensor(a.data @ b.data)

    def vjp(g):
        # an operand whose partner is a vector gets an outer-product gradient
        if a.requires_grad:
            a.accumulate(g @ b.data.T if bn == 2 else np.multiply.outer(g, b.data))
        if b.requires_grad:
            b.accumulate(a.data.T @ g if an == 2 else np.multiply.outer(a.data, g))

    return _record(out, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    _check(a.data.ndim == 2, "transpose", a.data.shape)
    out = Tensor(a.data.T)

    def vjp(g):
        if a.requires_grad:
            a.accumulate(g.T)

    return _record(out, (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def vjp(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.shape))

    return _record(out, (a,), vjp)


def concat(parts, axis=0) -> Tensor:
    parts = list(parts)
    _check(len(parts) >= 1, "concat", ())
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p.accumulate(g[tuple(idx)])

    return _record(out, tuple(parts), vjp)


def rows(table: Tensor, idx) -> Tensor:
    """Gather rows (or elements of a vector) by a constant index array."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(table.data[idx])

    def vjp(g):
        if table.requires_grad:
            buf = np.zeros_like(table.data)
            np.add.at(buf, idx, g)
            table.accumulate(buf)

    return _record(out, (table,), vjp)


def sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    """Sum over ``axis`` (every axis when None), as numpy's ``sum`` does."""
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def vjp(g):
        if a.requires_grad:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(g, a.shape))

    return _record(out, (a,), vjp)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    pos = a.data > 0
    out = Tensor(np.where(pos, a.data, slope * a.data))

    def vjp(g):
        if a.requires_grad:
            a.accumulate(g * np.where(pos, 1.0, slope))

    return _record(out, (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    # two-branch form is exact at +/-inf and never overflows
    x = a.data
    neg = x < 0
    with np.errstate(over="ignore"):
        e = np.exp(np.where(neg, x, -x))
    y = np.where(neg, e / (1.0 + e), 1.0 / (1.0 + e))
    out = Tensor(y)

    def vjp(g):
        if a.requires_grad:
            a.accumulate(g * y * (1.0 - y))

    return _record(out, (a,), vjp)


def softplus(a: Tensor) -> Tensor:
    out = Tensor(np.logaddexp(0.0, a.data))
    x = a.data

    def vjp(g):
        neg = x < 0
        with np.errstate(over="ignore"):
            e = np.exp(np.where(neg, x, -x))
        s = np.where(neg, e / (1.0 + e), 1.0 / (1.0 + e))
        if a.requires_grad:
            a.accumulate(g * s)

    return _record(out, (a,), vjp)


def softmax_rows(a: Tensor, mask=None) -> Tensor:
    """Softmax over the last axis. With a constant boolean ``mask`` only its
    True entries take part, and a row with no True entry comes out all zero
    (the softmax over an empty set is the empty sum).
    """
    x = a.data
    if mask is None:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        y = e / e.sum(axis=-1, keepdims=True)
    else:
        mask = np.asarray(mask, dtype=bool)
        _check(mask.shape == x.shape, "softmax_rows", x.shape, mask.shape)
        rowmax = np.where(mask, x, -np.inf).max(axis=-1, keepdims=True)
        # masked entries enter exp as 0, so they cannot overflow; exp(-inf)
        # would be as safe but takes numpy's slow path for special values
        e = np.where(mask, x - rowmax, 0.0)
        np.exp(e, out=e)
        e *= mask
        denom = e.sum(axis=-1, keepdims=True)
        y = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)
    out = Tensor(y)

    def vjp(g):
        if a.requires_grad:
            dot = (g * y).sum(axis=-1, keepdims=True)
            a.accumulate(y * (g - dot))

    return _record(out, (a,), vjp)


def smooth_l1(pred: Tensor, target: Tensor) -> Tensor:
    """Mean-reduced smooth L1: 0.5 e^2 where |e| < 1, |e| - 0.5 elsewhere."""
    if not isinstance(target, Tensor):
        target = constant(target)
    _check(pred.data.shape == target.data.shape, "smooth_l1", pred.data.shape, target.data.shape)
    e = pred.data - target.data
    small = np.abs(e) < 1.0
    per = np.where(small, 0.5 * e * e, np.abs(e) - 0.5)
    n = max(per.size, 1)
    out = Tensor(per.sum() / n)

    def vjp(g):
        d = np.where(small, e, np.sign(e)) * (g / n)
        if pred.requires_grad:
            pred.accumulate(d)
        if target.requires_grad:
            target.accumulate(-d)

    return _record(out, (pred, target), vjp)


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_difference_grads(loss_fn, params, step=1e-5):
    """Central-difference gradient of ``loss_fn()`` w.r.t. each param tensor.

    ``loss_fn`` must be a pure forward function of the current param values
    (it is re-evaluated 2x per coordinate, so keep the params small).
    """
    def evaluate():
        value = loss_fn()
        return float(value.data if isinstance(value, Tensor) else value)

    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p.data)
        for idx in np.ndindex(p.data.shape):
            keep = p.data[idx]
            p.data[idx] = keep + step
            up = evaluate()
            p.data[idx] = keep - step
            down = evaluate()
            p.data[idx] = keep
            g[idx] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def gradcheck(loss_fn, params, step=1e-5):
    """Compare tape gradients against finite differences.

    Returns a flat array of per-parameter relative errors, ordered by
    sorted param name then C order within each tensor.
    """
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    analytic = {k: (p.grad if p.grad is not None else np.zeros_like(p.data)).copy()
                for k, p in params.items()}
    numeric = finite_difference_grads(loss_fn, params, step=step)
    errs = []
    for k in sorted(params):
        a = analytic[k].reshape(-1)
        b = numeric[k].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        errs.append(np.abs(a - b) / denom)
    return np.concatenate(errs) if errs else np.zeros(0)


# ---------------------------------------------------------------------------
# named-tensor container (versioned, bit-exact round trip)

_MAGIC = "odflow-tensors"
_VERSION = 1


def save_tensors(path, tensors, meta=None):
    """Write named float64 arrays plus a JSON meta block to one file.

    Layout: one JSON header line (sorted keys) followed by the raw
    little-endian float64 bytes of every tensor in header order. Saving the
    result of ``load_tensors`` reproduces the file byte for byte.
    """
    names = sorted(tensors)
    layout = {}
    offset = 0
    for name in names:
        arr = np.asarray(tensors[name], dtype=np.float64)
        layout[name] = {"shape": list(arr.shape), "offset": offset}
        offset += arr.size * 8
    header = {
        "format": _MAGIC,
        "version": _VERSION,
        "meta": meta if meta is not None else {},
        "tensors": layout,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(b"\n")
        for name in names:
            arr = np.asarray(tensors[name], dtype=np.float64)
            fh.write(arr.astype("<f8").tobytes(order="C"))


def load_tensors(path):
    """Read a container written by :func:`save_tensors` -> (tensors, meta)."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != _MAGIC:
            raise ValueError(f"{path}: not a tensor container")
        if header.get("version") != _VERSION:
            raise ValueError(f"{path}: unsupported container version {header.get('version')}")
        body = fh.read()
    expected = 0
    for spec in header["tensors"].values():
        expected += 8 * int(np.prod(spec["shape"]))
    if len(body) != expected:
        raise ValueError(f"{path}: the header lays out {expected} bytes of tensors, "
                         f"but the file holds {len(body)} (truncated or corrupt)")
    tensors = {}
    for name, spec in header["tensors"].items():
        shape = tuple(spec["shape"])
        size = int(np.prod(shape))
        start = spec["offset"]
        raw = body[start:start + size * 8]
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return tensors, header["meta"]
