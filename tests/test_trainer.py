"""Splits, optimizers, and the training loop's contracts."""

import numpy as np
import pytest

from conftest import TINY_EMBED, synthetic_store
from odflow import tensorcore as tc
from odflow.model import ODFlowModel, ParamStore, load_checkpoint
from odflow.trainer import (Adam, Sgd, TrainConfig, save_result, split_days,
                            train, write_loss_log)

TINY_TRAIN = dict(epochs=1, seed=0, embed_dim=TINY_EMBED.embed_dim,
                  proj_dim=TINY_EMBED.proj_dim, heads=TINY_EMBED.heads,
                  ff_hidden=TINY_EMBED.ff_hidden, h=1)


# ---------------------------------------------------------------------------
# splitting


def test_split_28_days():
    train_d, val_d, test_d = split_days(range(28))
    assert (len(train_d), len(val_d), len(test_d)) == (19, 2, 7)


def test_split_100_days():
    train_d, val_d, test_d = split_days(range(100))
    assert (len(train_d), len(val_d), len(test_d)) == (68, 7, 25)


def test_split_is_chronological_partition():
    days = list(range(40))
    train_d, val_d, test_d = split_days(days)
    assert train_d + val_d + test_d == days
    assert max(train_d) < min(val_d) < min(test_d)


def test_split_rejects_short_datasets():
    with pytest.raises(ValueError, match="at least 10"):
        split_days(range(9))


# ---------------------------------------------------------------------------
# optimizers


def _scalar_params(value=1.0):
    return ParamStore({"x": tc.parameter(np.array(value))})


def test_zero_gradient_leaves_parameters_unchanged():
    for factory in (lambda p: Sgd(p, 0.01), lambda p: Adam(p, 0.01)):
        params = _scalar_params(2.5)
        params["x"].grad = np.array(0.0)
        factory(params).step()
        assert params["x"].data == 2.5


def test_plain_descent_three_steps_closed_form():
    params = _scalar_params(1.0)
    opt = Sgd(params, 0.001)
    for _ in range(3):
        params["x"].grad = np.array(1.0)
        opt.step()
    assert params["x"].data == pytest.approx(1.0 - 0.003, abs=1e-15)


def test_adam_first_step_matches_hand_formula():
    for g in (0.5, -2.0, 3.0):
        params = _scalar_params(1.0)
        opt = Adam(params, 0.001)
        params["x"].grad = np.array(g)
        opt.step()
        # bias-corrected first step: lr * g / (|g| + eps)
        expected = 1.0 - 0.001 * g / (abs(g) + 1e-8)
        assert params["x"].data == pytest.approx(expected, abs=1e-12)


def test_optimizer_step_clears_gradients():
    params = _scalar_params()
    params["x"].grad = np.array(1.0)
    Adam(params, 0.1).step()
    assert params["x"].grad is None


# ---------------------------------------------------------------------------
# training loop


@pytest.fixture(scope="module")
def small_store():
    return synthetic_store(rows=2, cols=2, days=14, seed=21, base_rate=0.3)


def test_zero_learning_rate_is_a_bitwise_noop(small_store):
    cfg = TrainConfig(**{**TINY_TRAIN, "learning_rate": 0.0, "optimizer": "sgd"})
    result = train(small_store, cfg)
    fresh = ParamStore.initialize(cfg.model_config(), small_store.n,
                                  small_store.grid.rows, small_store.grid.cols,
                                  small_store.slots_per_day, cfg.seed)
    for name, tensor in result.params.items():
        assert np.array_equal(tensor.data, fresh[name].data), name


def test_fixed_seed_reproduces_loss_log_and_checkpoint(tmp_path, small_store):
    cfg = TrainConfig(**{**TINY_TRAIN, "epochs": 2, "seed": 9})
    a = train(small_store, cfg)
    b = train(small_store, cfg)
    assert a.loss_log == b.loss_log
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_result(pa, a)
    save_result(pb, b)
    assert pa.read_bytes() == pb.read_bytes()


def test_checkpoint_round_trip_preserves_everything(tmp_path, small_store):
    cfg = TrainConfig(**TINY_TRAIN)
    result = train(small_store, cfg)
    path = tmp_path / "model.ckpt"
    save_result(path, result)
    params, ha, meta = load_checkpoint(path)
    for name, tensor in result.params.items():
        assert np.array_equal(params[name].data, tensor.data)
    assert np.array_equal(ha.demand_table, result.ha.demand_table)
    assert meta["train_config"]["h"] == 1
    assert meta["split"]["train"] == list(range(9))
    # save -> load -> save is byte identical
    path2 = tmp_path / "again.ckpt"
    save_result(path2, result)
    assert path.read_bytes() == path2.read_bytes()


def test_targets_without_history_are_skipped_and_counted(small_store):
    cfg = TrainConfig(**TINY_TRAIN)
    result = train(small_store, cfg)
    # train days 0..8; day 7 slot 1 lacks a previous-hour day, days 0-6 lack 7 days
    assert result.skipped_targets == 7 * 24 + 1


def test_validation_days_never_touch_parameters(small_store):
    # training on the same store with validation targets removed from the
    # loss path must produce identical parameters: validation is read-only
    cfg = TrainConfig(**{**TINY_TRAIN, "epochs": 2, "seed": 5})
    result = train(small_store, cfg)
    assert result.meta["split"]["val"] == [9]
    assert all(v is not None for _, _, v in result.loss_log)


def test_non_finite_loss_aborts_with_slot_in_message(small_store, monkeypatch):
    cfg = TrainConfig(**TINY_TRAIN)
    original = ParamStore.initialize.__func__

    def poisoned(cls, *args, **kwargs):
        store = original(cls, *args, **kwargs)
        store["fusion.wq"].data[0, 0] = np.nan
        return store

    monkeypatch.setattr(ParamStore, "initialize", classmethod(poisoned))
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"day \d+ slot \d+"):
            train(small_store, cfg)


def test_loss_log_csv_format(tmp_path):
    path = tmp_path / "losses.csv"
    write_loss_log(path, [(1, 0.5, 0.6), (2, 0.4, None)])
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert lines[1] == "1,0.5,0.6"
    assert lines[2] == "2,0.4,"


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(task="everything").validate()
    with pytest.raises(ValueError):
        TrainConfig(batch_size=2).validate()


def test_validation_loss_log_matches_per_target_forwards(tmp_path, monkeypatch, small_store):
    # the validation loss comes from predict_many; forcing it back to one
    # independent forward per target must write the same loss log, byte for byte
    cfg = TrainConfig(**{**TINY_TRAIN, "epochs": 2, "seed": 5})
    shared = train(small_store, cfg)
    assert shared.meta["split"]["val"] == [9]

    def per_target(self, keys):
        return [tuple(t.data.copy() for t in self.forward(key)) for key in keys]

    monkeypatch.setattr(ODFlowModel, "predict_many", per_target)
    alone = train(small_store, cfg)
    write_loss_log(tmp_path / "shared.csv", shared.loss_log)
    write_loss_log(tmp_path / "alone.csv", alone.loss_log)
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
    assert all(v is not None for _, _, v in shared.loss_log)
