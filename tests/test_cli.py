"""End-to-end command behavior: pipelines, exit codes, idempotence, sweeps."""

import json

import numpy as np
import pytest

from odflow.cli import main
from odflow.model import load_checkpoint, save_checkpoint

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
    from odflow.flowgraph import demand_vector, load_store
    from odflow.ingest import SlotKey
    from odflow.metrics import mape

    root, _, graphs, ckpt = pipeline
    assert main(["predict", "--graphs", str(graphs), "--checkpoint", str(ckpt),
                 "--day", "9", "--slot", "12", "--no-timestamp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    store = load_store(graphs)
    actual = demand_vector(store.graph_at(SlotKey(9, 12, 0)))
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


def test_runtime_failure_exits_two(tmp_path, capsys):
    graphs = tmp_path / "corrupt.jsonl"
    graphs.write_text("not json\n")
    (tmp_path / "corrupt.jsonl.meta.json").write_text("also not json\n")
    code = main(["train", "--graphs", str(graphs),
                 "--checkpoint", str(tmp_path / "c.ckpt")])
    assert code == 2
    capsys.readouterr()


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
