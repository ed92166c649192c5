"""Chronological splitting, the training loop, and optimizers.

Days are split chronologically (forecasting: the future must never inform
the past), the historical average and degree normalizers come from the
training days only, and training runs one optimizer step per target slot
(batch size 1) in a seed-shuffled order that is deterministic per epoch.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensorcore as tc
from .metrics import eligible_targets
from .model import ModelConfig, ODFlowModel, ParamStore, save_checkpoint
from .spatial import EmbeddingConfig
from .temporal import DEFAULT_CHANNELS
from .transfer import HistoricalAverage

MIN_SPLIT_DAYS = 10


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 0.001
    batch_size: int = 1           # fixed; the loop takes one step per target
    seed: int = 0
    train_frac: float = 0.75
    val_frac: float = 0.10        # fraction of the training days
    optimizer: str = "adam"
    task: str = "both"            # od | demand | both
    w_demand: float = 1.0
    w_od: float = 1.0
    embed_dim: int = 8
    proj_dim: int = 64
    heads: int = 4
    ff_hidden: int = 32
    h: int = 6
    channels: tuple = DEFAULT_CHANNELS
    use_ha: bool = True
    geo_threshold_km: float = 0.0

    def validate(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (0.0 < self.train_frac < 1.0 and 0.0 <= self.val_frac < 1.0):
            raise ValueError("split fractions must lie in (0, 1)")
        if self.task not in ("od", "demand", "both"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.batch_size != 1:
            raise ValueError("batch size is fixed at 1")
        # 0 is allowed: a run that must leave the initial weights as they are
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")

    def model_config(self) -> ModelConfig:
        embed = EmbeddingConfig(embed_dim=self.embed_dim, proj_dim=self.proj_dim,
                                heads=self.heads, ff_hidden=self.ff_hidden,
                                temporal_hours=self.h)
        return ModelConfig(embed=embed, channels=tuple(self.channels),
                           use_ha=self.use_ha, geo_threshold_km=self.geo_threshold_km)

    def to_dict(self):
        d = asdict(self)
        d["channels"] = list(self.channels)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["channels"] = tuple(d.get("channels", DEFAULT_CHANNELS))
        return cls(**d)


def split_days(days, train_frac=0.75, val_frac=0.10):
    """Chronological (train, validation, test) day lists.

    The first floor(train_frac * len) days are the training period; the last
    floor(val_frac * train) of those are held out for validation.
    """
    days = list(days)
    if len(days) < MIN_SPLIT_DAYS:
        raise ValueError(f"need at least {MIN_SPLIT_DAYS} days to split, got {len(days)}")
    n_trainval = math.floor(len(days) * train_frac)
    n_val = math.floor(n_trainval * val_frac)
    train = days[:n_trainval - n_val]
    val = days[n_trainval - n_val:n_trainval]
    test = days[n_trainval:]
    return train, val, test


# ---------------------------------------------------------------------------
# optimizers


class Sgd:
    def __init__(self, params: ParamStore, lr):
        self.params = params
        self.lr = lr

    def step(self):
        for _, p in self.params.items():
            if p.grad is not None:
                p.data -= self.lr * p.grad
        self.params.zero_grad()


class Adam:
    """Adaptive moments with bias correction (decay 0.9 / 0.999, eps 1e-8)."""

    def __init__(self, params: ParamStore, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        self.params.zero_grad()


def make_optimizer(kind, params, lr):
    if kind == "adam":
        return Adam(params, lr)
    if kind == "sgd":
        return Sgd(params, lr)
    raise ValueError(f"unknown optimizer {kind!r}")


# ---------------------------------------------------------------------------
# training


def degree_normalizers(store, days):
    """(max in-degree, max out-degree) over the given days' slots, as floats."""
    counts = store.day_counts(days)                  # (d, S, n, n)
    return float(counts.sum(axis=2).max(initial=0)), float(counts.sum(axis=3).max(initial=0))


@dataclass
class TrainResult:
    params: ParamStore
    ha: HistoricalAverage
    meta: dict
    loss_log: list = field(default_factory=list)   # (epoch, train_loss, val_loss)
    skipped_targets: int = 0


def _target_loss(cfg: TrainConfig, delta_hat, od_hat, actual_demand, actual_od):
    loss = None
    if cfg.task in ("demand", "both"):
        loss = tc.mul(tc.smooth_l1(delta_hat, tc.constant(actual_demand)), cfg.w_demand)
    if cfg.task in ("od", "both"):
        od_loss = tc.mul(tc.smooth_l1(od_hat, tc.constant(actual_od)), cfg.w_od)
        loss = od_loss if loss is None else tc.add(loss, od_loss)
    return loss


def _mean_loss(model, cfg, targets, actuals):
    if not targets:
        return None
    total = 0.0
    for key, (delta_hat, od_hat) in zip(targets, model.predict_many(targets)):
        demand, od = actuals[(key.day_index, key.slot)]
        loss = _target_loss(cfg, tc.constant(delta_hat), tc.constant(od_hat), demand, od)
        total += float(loss.data)
    return total / len(targets)


def train(store, cfg: TrainConfig, progress=None):
    """Train on the store's chronological training split.

    Returns a TrainResult whose params are the best-validation snapshot
    (the last epoch when there is no validation day).
    """
    cfg.validate()
    train_days, val_days, test_days = split_days(range(store.days),
                                                 cfg.train_frac, cfg.val_frac)
    norms = degree_normalizers(store, train_days)
    ha = HistoricalAverage.build(store, train_days)
    model_cfg = cfg.model_config()
    params = ParamStore.initialize(model_cfg, store.n, store.grid.rows,
                                   store.grid.cols, store.slots_per_day, cfg.seed)
    model = ODFlowModel(store, params, model_cfg, norms, ha if cfg.use_ha else None)

    train_targets = eligible_targets(model, train_days)
    val_targets = eligible_targets(model, val_days)
    skipped = len(train_days) * store.slots_per_day - len(train_targets)
    if not train_targets:
        raise ValueError("no training target has the required history "
                         f"(7 days and {cfg.h} hours)")

    actuals = {}
    for key in train_targets + val_targets:
        od = store.od(key)
        actuals[(key.day_index, key.slot)] = (od.sum(axis=1), od)

    optimizer = make_optimizer(cfg.optimizer, params, cfg.learning_rate)
    shuffle_rng = np.random.Generator(np.random.PCG64([cfg.seed, 1]))
    loss_log = []
    best_val = None
    best_values = None
    best_epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(train_targets))
        total = 0.0
        for idx in order:
            key = train_targets[idx]
            demand, od = actuals[(key.day_index, key.slot)]
            params.zero_grad()
            with tc.Tape() as tape:
                loss = _target_loss(cfg, *model.forward(key), demand, od)
            value = float(loss.data)
            if not np.isfinite(value):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, target day {key.day_index} "
                    f"slot {key.slot}")
            tape.backward(loss)
            optimizer.step()
            total += value
        train_loss = total / len(train_targets)
        val_loss = _mean_loss(model, cfg, val_targets, actuals)
        loss_log.append((epoch, train_loss, val_loss))
        if progress:
            progress(epoch, train_loss, val_loss)
        if val_loss is not None and (best_val is None or val_loss < best_val):
            best_val = val_loss
            best_values = params.copy_values()
            best_epoch = epoch

    if best_values is not None:
        params.load_values(best_values)
        final_epoch = best_epoch
    else:
        final_epoch = cfg.epochs

    meta = {
        "train_config": cfg.to_dict(),
        "model_config": model_cfg.to_dict(),
        "grid": store.grid.to_dict(),
        "slot_minutes": store.slot_minutes,
        "start_date": store.start_date.isoformat(),
        "degree_norms": list(norms),
        "split": {"train": list(train_days), "val": list(val_days),
                  "test": list(test_days)},
        "epoch": final_epoch,
        "rng_state": _jsonable_rng_state(shuffle_rng),
        "skipped_targets": skipped,
    }
    return TrainResult(params, ha, meta, loss_log, skipped)


def _jsonable_rng_state(rng):
    state = rng.bit_generator.state
    return {"bit_generator": state["bit_generator"],
            "state": {k: int(v) for k, v in state["state"].items()},
            "has_uint32": int(state["has_uint32"]),
            "uinteger": int(state["uinteger"])}


def save_result(path, result: TrainResult):
    save_checkpoint(path, result.params, result.meta, result.ha)


def write_loss_log(path, loss_log):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, train_loss, val_loss in loss_log:
            val = "" if val_loss is None else repr(val_loss)
            fh.write(f"{epoch},{repr(train_loss)},{val}\n")
