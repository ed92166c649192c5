"""End-to-end command behavior: pipelines, exit codes, idempotence, sweeps."""

import json

import numpy as np
import pytest

from odflow.cli import main
from odflow.model import load_checkpoint, save_checkpoint
from odflow.tensorcore import load_tensors, save_tensors

TINY = ["--epochs", "1", "--seed", "4", "--embed-dim", "2", "--dim", "13",
        "--heads", "1", "--ff-hidden", "4", "--h", "1"]

# keeps CSV volumes small; the pipeline plumbing is what these tests exercise
LIGHT_RATES = '{"base_rate": 0.4, "morning_rate": 2.0, "evening_rate": 2.0}'


def light_config(tmp_path):
    path = tmp_path / "light.json"
    path.write_text(LIGHT_RATES)
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> build-graphs -> train, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    trips = root / "trips.csv"
    graphs = root / "graphs.jsonl"
    ckpt = root / "model.ckpt"
    assert main(["synth", "--grid", "3x3", "--days", "12", "--seed", "5",
                 "--config", light_config(root), "--out", str(trips)]) == 0
    assert main(["build-graphs", "--trips", str(trips), "--out", str(graphs)]) == 0
    assert main(["train", "--graphs", str(graphs), "--checkpoint", str(ckpt),
                 "--quiet", *TINY]) == 0
    return root, trips, graphs, ckpt


def test_pipeline_artifacts_exist(pipeline):
    root, trips, graphs, ckpt = pipeline
    assert trips.exists() and graphs.exists() and ckpt.exists()
    assert (root / "model.ckpt.losses.csv").exists()


def test_evaluate_writes_report_and_is_idempotent(pipeline):
    root, _, graphs, ckpt = pipeline
    out1 = root / "r1.json"
    out2 = root / "r2.json"
    args = ["evaluate", "--graphs", str(graphs), "--checkpoint", str(ckpt),
            "--no-timestamp"]
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert set(report) >= {"od", "demand"}
    assert "generated_at" not in report


def test_evaluate_timestamp_present_by_default(pipeline, capsys):
    root, _, graphs, ckpt = pipeline
    assert main(["evaluate", "--graphs", str(graphs), "--checkpoint", str(ckpt)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "generated_at" in payload


def test_evaluate_csv_long_form(pipeline, capsys):
    root, _, graphs, ckpt = pipeline
    assert main(["evaluate", "--graphs", str(graphs), "--checkpoint", str(ckpt),
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "task,source,metric,threshold,value,count"
    assert any(line.startswith("od,model,mape,0,") for line in lines)
    assert any(line.startswith("demand,baseline,mae,5,") for line in lines)


def test_report_rerenders_json_to_csv(pipeline, capsys):
    root, _, graphs, ckpt = pipeline
    report_path = root / "report.json"
    main(["evaluate", "--graphs", str(graphs), "--checkpoint", str(ckpt),
          "--no-timestamp", "--out", str(report_path)])
    assert main(["report", "--in", str(report_path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("task,source,metric,threshold")


def test_predict_emits_demand_and_sparse_od(pipeline, capsys):
    root, _, graphs, ckpt = pipeline
    assert main(["predict", "--graphs", str(graphs), "--checkpoint", str(ckpt),
                 "--day", "11", "--slot", "8", "--no-timestamp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == {"day": 11, "slot": 8, "dow": 4}
    assert len(payload["demand"]) == 9
    assert all(len(t) == 3 for t in payload["od"])
    assert all(v > 0 for _, _, v in payload["od"])


def test_predict_against_stored_actuals_gives_finite_mape(pipeline, capsys):
    from odflow.flowgraph import load_store
    from odflow.ingest import SlotKey
    from odflow.metrics import mape

    root, _, graphs, ckpt = pipeline
    assert main(["predict", "--graphs", str(graphs), "--checkpoint", str(ckpt),
                 "--day", "9", "--slot", "12", "--no-timestamp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    store = load_store(graphs)
    actual = store.od(SlotKey(9, 12, 0)).sum(axis=1)
    value = mape(payload["demand"], actual, 0)
    assert value is not None and np.isfinite(value)


def test_predict_insufficient_history_names_earliest(pipeline, capsys):
    root, _, graphs, ckpt = pipeline
    code = main(["predict", "--graphs", str(graphs), "--checkpoint", str(ckpt),
                 "--day", "2", "--slot", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "earliest valid target is day 7 slot 2" in err


def test_predict_gate_one_marginals_match(pipeline, capsys):
    root, _, graphs, ckpt = pipeline
    params, ha, meta = load_checkpoint(ckpt)
    params["transfer.gate_od"].data[...] = 700.0   # sigmoid saturates to 1.0
    gated = root / "gate1.ckpt"
    save_checkpoint(gated, params, meta, ha)
    assert main(["predict", "--graphs", str(graphs), "--checkpoint", str(gated),
                 "--day", "11", "--slot", "8", "--no-timestamp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = np.zeros(9)
    for i, _, v in payload["od"]:
        rows[i - 1] += v
    assert np.all(np.abs(rows - np.array(payload["demand"])) < 1e-6)


# ---------------------------------------------------------------------------
# exit codes


def test_validation_errors_exit_one(tmp_path, capsys):
    assert main(["synth", "--grid", "nonsense", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["build-graphs", "--trips", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "g.jsonl")]) == 1
    assert main(["train", "--graphs", str(tmp_path / "none.jsonl"),
                 "--checkpoint", str(tmp_path / "c.ckpt")]) == 1
    capsys.readouterr()


def test_unknown_flag_exits_one(capsys):
    assert main(["synth", "--grid", "3x3", "--frobnicate"]) == 1
    capsys.readouterr()


def test_runtime_failure_exits_two(pipeline, tmp_path, capsys):
    # a learning rate this large sends the weights, then the loss, to inf
    _, _, graphs, _ = pipeline
    code = main(["train", "--graphs", str(graphs), "--checkpoint", str(tmp_path / "c.ckpt"),
                 "--quiet", *TINY, "--lr", "1e300"])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err


def _set_od(od):
    def mutate(lines):
        rec = json.loads(lines[30])
        rec["od"] = od
        lines[30] = json.dumps(rec, separators=(",", ":")) + "\n"
        return lines
    return mutate


def _set_dow(lines):
    rec = json.loads(lines[30])
    rec["dow"] = (rec["dow"] + 1) % 7
    lines[30] = json.dumps(rec, separators=(",", ":")) + "\n"
    return lines


# (mutation of the 288 store lines, the line the error names, a message fragment)
CORRUPT_STORES = {
    "invalid-json": (lambda ls: ls[:30] + ["{not json\n"] + ls[31:], 31, "invalid JSON"),
    "duplicate-slot": (lambda ls: ls[:31] + ls[30:], 32,
                       "found day 1 slot 7 dow 1 where day 1 slot 8 dow 1 belongs"),
    "missing-slot": (lambda ls: ls[:30] + ls[31:], 31,
                     "found day 1 slot 8 dow 1 where day 1 slot 7 dow 1 belongs"),
    "partial-last-day": (lambda ls: ls[:-1], 287,
                         "ends before day 11 slot 24 of the meta's 12 days"),
    "extra-record": (lambda ls: ls + ls[-1:], 289, "a record beyond the meta's 12 days"),
    "wrong-dow": (_set_dow, 31, "found day 1 slot 7 dow 2 where day 1 slot 7 dow 1 belongs"),
    "cell-zero": (_set_od([[0, 1, 1]]), 31, "cell 0 outside [1, 9]"),
    "cell-n-plus-one": (_set_od([[1, 10, 1]]), 31, "cell 10 outside [1, 9]"),
    "negative-weight": (_set_od([[1, 2, -1]]), 31, "weight -1 is negative"),
    "fractional-weight": (_set_od([[1, 2, 1.5]]), 31, "non-negative integers"),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_STORES))
def test_corrupt_store_exits_one(pipeline, tmp_path, capsys, case):
    _, _, graphs, ckpt = pipeline
    mutate, line, fragment = CORRUPT_STORES[case]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(mutate(graphs.read_text().splitlines(keepends=True))))
    (tmp_path / "bad.jsonl.meta.json").write_bytes(
        (graphs.parent / (graphs.name + ".meta.json")).read_bytes())
    code = main(["evaluate", "--graphs", str(bad), "--checkpoint", str(ckpt),
                 "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"{bad}, line {line}:" in err and fragment in err, err


def test_start_date_after_a_trip_exits_one(pipeline, tmp_path, capsys):
    _, trips, _, _ = pipeline
    code = main(["build-graphs", "--trips", str(trips), "--out", str(tmp_path / "g.jsonl"),
                 "--start-date", "2024-01-02"])
    assert code == 1
    err = capsys.readouterr().err
    assert "timestamp 2024-01-01 00:10:00 precedes dataset start 2024-01-02" in err


def _store_variant(pipeline, tmp_path, *flags):
    _, trips, _, _ = pipeline
    out = tmp_path / "variant.jsonl"
    assert main(["build-graphs", "--trips", str(trips), "--out", str(out), *flags]) == 0
    return out


def _first_days(graphs, tmp_path, days):
    out = tmp_path / f"first{days}.jsonl"
    out.write_text("".join(graphs.read_text().splitlines(keepends=True)[:days * 24]))
    meta = json.loads((graphs.parent / (graphs.name + ".meta.json")).read_text())
    (tmp_path / (out.name + ".meta.json")).write_text(json.dumps({**meta, "days": days}))
    return out


PREDICT = ["predict", "--day", "11", "--slot", "8", "--no-timestamp"]
EVALUATE = ["evaluate", "--no-timestamp"]


@pytest.mark.parametrize("command", [EVALUATE, PREDICT], ids=["evaluate", "predict"])
def test_checkpoint_on_other_grid_exits_one(pipeline, tmp_path, capsys, command):
    _, _, _, ckpt = pipeline
    other = _store_variant(pipeline, tmp_path, "--cell-km", "5.0")
    code = main([command[0], "--graphs", str(other), "--checkpoint", str(ckpt), *command[1:]])
    assert code == 1
    assert "grid does not match" in capsys.readouterr().err


@pytest.mark.parametrize("command", [EVALUATE, PREDICT], ids=["evaluate", "predict"])
def test_checkpoint_on_other_slot_minutes_exits_one(pipeline, tmp_path, capsys, command):
    _, _, _, ckpt = pipeline
    other = _store_variant(pipeline, tmp_path, "--slot-minutes", "30")
    code = main([command[0], "--graphs", str(other), "--checkpoint", str(ckpt), *command[1:]])
    assert code == 1
    assert "slots of 60 minutes do not match the store's 30" in capsys.readouterr().err


# (edit of the checkpoint's tensors, what the message must say)
PARAM_EDITS = {
    "missing": (lambda t: t.pop("spatial.h0.a"), "checkpoint lacks parameter spatial.h0.a"),
    "extra": (lambda t: t.update({"spatial.h1.a": t["spatial.h0.a"]}),
              "checkpoint has parameter spatial.h1.a, which its model config does not use"),
    "shape": (lambda t: t.update({"spatial.w_o": t["spatial.w_o"][:, :6]}),
              "checkpoint parameter spatial.w_o has shape (13, 6); "
              "its model config needs (13, 13)"),
}


@pytest.mark.parametrize("case", sorted(PARAM_EDITS))
@pytest.mark.parametrize("command", [EVALUATE, PREDICT], ids=["evaluate", "predict"])
def test_checkpoint_parameter_mismatch_exits_one(pipeline, tmp_path, capsys, command, case):
    _, _, graphs, ckpt = pipeline
    edit, message = PARAM_EDITS[case]
    tensors, meta = load_tensors(ckpt)
    edit(tensors)
    edited = tmp_path / "edited.ckpt"
    save_tensors(edited, tensors, meta=meta)
    code = main([command[0], "--graphs", str(graphs), "--checkpoint", str(edited),
                 *command[1:]])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("days", [9, 5])
def test_evaluate_on_store_without_test_days_exits_one(pipeline, tmp_path, capsys, days):
    _, _, graphs, ckpt = pipeline
    short = _first_days(graphs, tmp_path, days)
    code = main(["evaluate", "--graphs", str(short), "--checkpoint", str(ckpt),
                 "--no-timestamp"])
    assert code == 1
    assert f"the store holds {days} days; the checkpoint's test split needs days 9-11" \
        in capsys.readouterr().err


def test_evaluate_with_no_targets_exits_one(pipeline, capsys):
    # 12 days at the default fractions leave the validation split empty
    _, _, graphs, ckpt = pipeline
    code = main(["evaluate", "--graphs", str(graphs), "--checkpoint", str(ckpt),
                 "--split", "val", "--no-timestamp"])
    assert code == 1
    assert "no slot of the val split" in capsys.readouterr().err


def test_predict_after_the_last_day_needs_only_history(pipeline, tmp_path, capsys):
    _, _, graphs, ckpt = pipeline
    short = _first_days(graphs, tmp_path, 9)
    assert main(["predict", "--graphs", str(short), "--checkpoint", str(ckpt),
                 "--day", "9", "--slot", "1", "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["target"] == {"day": 9, "slot": 1, "dow": 2}


def test_train_rejects_unknown_config_fields(pipeline, tmp_path, capsys):
    _, _, graphs, _ = pipeline
    bad = tmp_path / "bad.json"
    bad.write_text('{"learning_rte": 0.1}')
    code = main(["train", "--graphs", str(graphs), "--config", str(bad),
                 "--checkpoint", str(tmp_path / "c.ckpt")])
    assert code == 1
    assert "learning_rte" in capsys.readouterr().err


@pytest.mark.parametrize("lr", ["nan", "-1"])
def test_train_rejects_bad_learning_rate(pipeline, tmp_path, capsys, lr):
    _, _, graphs, _ = pipeline
    code = main(["train", "--graphs", str(graphs), "--checkpoint", str(tmp_path / "c.ckpt"),
                 "--quiet", *TINY, f"--lr={lr}"])
    assert code == 1
    assert "learning_rate" in capsys.readouterr().err
    assert not (tmp_path / "c.ckpt").exists()


@pytest.mark.parametrize("command", [["evaluate", "--no-timestamp"],
                                     ["predict", "--day", "11", "--slot", "8", "--no-timestamp"]])
def test_truncated_or_foreign_checkpoint_exits_one(pipeline, tmp_path, capsys, command):
    _, _, graphs, ckpt = pipeline
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(ckpt.read_bytes()[:-100])
    foreign = tmp_path / "foreign.ckpt"
    foreign.write_text("epoch,train_loss,val_loss\n1,0.5,0.6\n")
    for path, reason in ((cut, "truncated"), (foreign, "not a tensor container")):
        code = main([command[0], "--graphs", str(graphs), "--checkpoint", str(path),
                     *command[1:]])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and reason in err


# ---------------------------------------------------------------------------
# determinism across full runs


def test_end_to_end_reruns_are_byte_identical(tmp_path):
    reports = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        trips, graphs = d / "t.csv", d / "g.jsonl"
        ckpt, report = d / "m.ckpt", d / "r.json"
        assert main(["synth", "--grid", "3x3", "--days", "12", "--seed", "9",
                     "--config", light_config(d), "--out", str(trips)]) == 0
        assert main(["build-graphs", "--trips", str(trips), "--out", str(graphs)]) == 0
        assert main(["train", "--graphs", str(graphs), "--checkpoint", str(ckpt),
                     "--quiet", *TINY]) == 0
        assert main(["evaluate", "--graphs", str(graphs), "--checkpoint", str(ckpt),
                     "--no-timestamp", "--out", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_hours_table_with_ablation(pipeline, tmp_path):
    _, _, graphs, _ = pipeline
    out = tmp_path / "hours.json"
    assert main(["sweep-hours", "--graphs", str(graphs), "--hours", "1,2",
                 "--ablation", "--out", str(out), "--no-timestamp", *TINY]) == 0
    table = json.loads(out.read_text())
    assert table["sweep"] == "hours"
    labels = [row["h"] for row in table["rows"]]
    assert labels == [1, 2, "disabled"]
    for row in table["rows"]:
        assert row["failed"] is None
        assert row["od_mape_0"] is not None
        assert row["demand_mae_5"] is not None


def test_sweep_grid_two_lengths(pipeline, tmp_path):
    _, trips, _, _ = pipeline
    out = tmp_path / "grid.csv"
    assert main(["sweep-grid", "--trips", str(trips), "--cells", "2.5,5.0",
                 "--out", str(out), "--format", "csv", *TINY]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("cell_km,failed,od_mape_0")
    assert len(lines) == 3
    assert lines[1].startswith("2.5,,") and lines[2].startswith("5.0,,")
    # all 12 metric columns populated on both rows
    for line in lines[1:]:
        assert all(cell != "" for cell in line.split(",")[2:])


def test_sweep_continues_after_failed_leg(pipeline, tmp_path):
    _, _, graphs, _ = pipeline
    out = tmp_path / "hours.json"
    # h=500 exceeds every target's history -> that leg fails, the other runs
    assert main(["sweep-hours", "--graphs", str(graphs), "--hours", "1,500",
                 "--out", str(out), "--no-timestamp", *TINY]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows[0]["failed"] is None
    assert rows[1]["failed"] is not None


def test_ingest_reports_reject_tally(tmp_path, capsys):
    trips = tmp_path / "trips.csv"
    trips.write_text(
        "pickup_time,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,passenger_count\n"
        "2024-01-01 08:00:00,40.75,-73.98,40.70,-74.00,1\n"
        "2024-01-01 08:00:00,95.0,-73.98,40.70,-74.00,1\n"
        "garbage,40.75,-73.98,40.70,-74.00,1\n")
    out = tmp_path / "clean.csv"
    assert main(["ingest", "--trips", str(trips), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"accepted": 1,
                       "rejected": {"malformed": 1, "out-of-range": 1}}
    lines = out.read_text().splitlines()
    assert len(lines) == 2
