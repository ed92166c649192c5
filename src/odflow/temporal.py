"""Temporal attention over four channels of historical slots.

Three linear channels look at the previous, next, and same hour of each of
the previous 7 days; the non-linear channel looks at the h slots immediately
before the target, which carries contextual events and return-trip behavior.
Each channel attends the target embeddings against every historical slot
with scaled dot attention and sums the results; a second attention unit
fuses the per-channel representations into one vector per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tensorcore as tc
from .ingest import SlotKey

LINEAR_DAYS = 7

CHANNEL_KINDS = ("prev-hour-7d", "next-hour-7d", "same-hour-7d", "last-h-hours")
NONLINEAR_CHANNEL = "last-h-hours"
DEFAULT_CHANNELS = CHANNEL_KINDS


class InsufficientHistoryError(ValueError):
    """The target slot lacks the history a channel requires."""


@dataclass(frozen=True)
class ChannelSpec:
    kind: str
    h: int = 6

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == NONLINEAR_CHANNEL and self.h < 1:
            raise ValueError(f"h must be >= 1, got {self.h}")


def channel_slots(target: SlotKey, spec: ChannelSpec, slots_per_day: int):
    """Historical SlotKeys a channel reads for the given target.

    Slot arithmetic is absolute (day * S + slot - 1), so the previous-hour
    channel at slot 1 wraps to the last slot of the day before, and the
    next-hour channel at the last slot wraps to slot 1 of the following
    historical day.
    """
    s_per_day = slots_per_day
    abs_target = target.day_index * s_per_day + (target.slot - 1)
    if spec.kind == "prev-hour-7d":
        abs_list = [abs_target - k * s_per_day - 1 for k in range(1, LINEAR_DAYS + 1)]
    elif spec.kind == "next-hour-7d":
        abs_list = [abs_target - k * s_per_day + 1 for k in range(1, LINEAR_DAYS + 1)]
    elif spec.kind == "same-hour-7d":
        abs_list = [abs_target - k * s_per_day for k in range(1, LINEAR_DAYS + 1)]
    else:
        abs_list = [abs_target - j for j in range(spec.h, 0, -1)]
    for a in abs_list:
        if a < 0 or a >= abs_target:
            raise InsufficientHistoryError(
                f"channel {spec.kind} for target (day {target.day_index}, slot {target.slot}) "
                f"needs slot index {a}")
    keys = []
    for a in abs_list:
        day, offset = divmod(a, s_per_day)
        dow = (target.day_of_week - (target.day_index - day)) % 7
        keys.append(SlotKey(day, offset + 1, dow))
    return keys


def scaled_dot_attend(e_target, e_hist, w_q, w_k, w_v, sink=None):
    """Each target cell attends over all historical cells: row-softmax of
    the scaled query/key dot products applied to the value projections."""
    dim = w_q.shape[0]
    q = tc.matmul(e_target, tc.transpose(w_q))
    k = tc.matmul(e_hist, tc.transpose(w_k))
    v = tc.matmul(e_hist, tc.transpose(w_v))
    sims = tc.mul(tc.matmul(q, tc.transpose(k)), 1.0 / math.sqrt(dim))
    weights = tc.softmax_rows(sims)
    if sink is not None:
        sink.setdefault("temporal", []).append(weights.data)
    return tc.matmul(weights, v)


def channel_representation(params, e_target, histories, sink=None):
    """Attend the target against every slot of one channel and sum."""
    w_q, w_k, w_v = params["temporal.wq"], params["temporal.wk"], params["temporal.wv"]
    total = None
    for e_hist in histories:
        attended = scaled_dot_attend(e_target, e_hist, w_q, w_k, w_v, sink)
        total = attended if total is None else tc.add(total, attended)
    return total


def fuse_channels(params, e_target, channel_reprs, sink=None):
    """Per-cell scaled dot attention with the target embedding as query and
    the channel representations as keys/values."""
    if not channel_reprs:
        raise ValueError("at least one channel representation is required")
    w_q, w_k, w_v = params["fusion.wq"], params["fusion.wk"], params["fusion.wv"]
    dim = w_q.shape[0]
    n, c = e_target.shape[0], len(channel_reprs)
    # row i * c + k of the stack is cell i's representation in channel k
    stack = tc.reshape(tc.concat(channel_reprs, axis=1), (n * c, -1))
    q = tc.reshape(tc.matmul(e_target, tc.transpose(w_q)), (n, 1, -1))
    keys = tc.reshape(tc.matmul(stack, tc.transpose(w_k)), (n, c, -1))
    values = tc.reshape(tc.matmul(stack, tc.transpose(w_v)), (n, c, -1))
    scores = tc.mul(tc.sum(tc.mul(q, keys), axis=2), 1.0 / math.sqrt(dim))
    weights = tc.softmax_rows(scores)
    if sink is not None:
        sink.setdefault("fusion", []).append(weights.data)
    return tc.sum(tc.mul(tc.reshape(weights, (n, c, 1)), values), axis=1)


def temporal_layer(params, e_target, per_channel_histories, sink=None):
    """Final spatio-temporal embeddings (n x z').

    ``per_channel_histories`` is an ordered list of (kind, [historical
    embedding tensors]) for the enabled channels.
    """
    reprs = [channel_representation(params, e_target, hists, sink)
             for _, hists in per_channel_histories]
    return fuse_channels(params, e_target, reprs, sink)
