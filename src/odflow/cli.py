"""Command-line entry point: synth, ingest, build-graphs, train, evaluate,
predict, sweep-grid, sweep-hours, report.

Exit codes: 0 success, 1 validation error (bad flags, bad config, bad
inputs), 2 runtime failure. All artifacts are plain files; every command is
deterministic given identical inputs and --seed (reports carry a timestamp
unless --no-timestamp).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import date, datetime

from . import metrics as metrics_mod
from . import synthgen
from .flowgraph import build_slot_graphs, load_store, save_store
from .ingest import DEFAULT_COLUMNS, SchemaError, parse_trips
from .model import ModelConfig, ODFlowModel, load_checkpoint
from .temporal import DEFAULT_CHANNELS, NONLINEAR_CHANNEL
from .trainer import TrainConfig, save_result, train, write_loss_log


class CliError(Exception):
    """Validation problem: wrong flags, malformed config, incompatible inputs."""


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _env_seed():
    raw = os.environ.get("ODFLOW_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"ODFLOW_SEED must be an integer, got {raw!r}")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON ({exc})")


def _write_json(path, payload, no_timestamp):
    if not no_timestamp:
        payload = {**payload, "generated_at": datetime.now().isoformat(timespec="seconds")}
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")


def _parse_grid(text):
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise CliError(f"--grid expects ROWSxCOLS, got {text!r}")


def _parse_bbox(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"--bbox expects minlat,minlon,maxlat,maxlon, got {text!r}")
    return tuple(float(p) for p in parts)


def _parse_list(text, kind=float):
    try:
        return [kind(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise CliError(f"expected a comma-separated list, got {text!r}")


# ---------------------------------------------------------------------------
# synth


def _add_synth(sub):
    p = sub.add_parser("synth", help="generate a synthetic trips CSV")
    p.add_argument("--grid", default="5x5", help="ROWSxCOLS")
    p.add_argument("--days", type=int, default=28)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cell-km", type=float, default=2.5)
    p.add_argument("--preset", default="commuter",
                   choices=["commuter", "commuter+events"])
    p.add_argument("--config", help="JSON file overriding the preset fields")
    p.add_argument("--start-date", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)


def cmd_synth(args):
    rows, cols = _parse_grid(args.grid)
    seed = args.seed if args.seed is not None else _env_seed()
    cfg = synthgen.preset(args.preset, rows=rows, cols=cols, days=args.days, seed=seed)
    overrides = {"cell_km": args.cell_km}
    if args.start_date:
        overrides["start_date"] = args.start_date
    if args.config:
        overrides.update(_load_json(args.config))
    merged = cfg.to_dict()
    merged.update(overrides)
    try:
        cfg = synthgen.config_from_json(merged)
        cfg.validate()
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad synth config: {exc}")
    count, bbox = synthgen.generate(cfg, args.out)
    print(f"wrote {count} trips to {args.out} "
          f"(bbox {','.join(f'{v:.6f}' for v in bbox)})")
    return 0


# ---------------------------------------------------------------------------
# ingest


def _add_column_flags(p):
    for logical in DEFAULT_COLUMNS:
        flag = "--col-" + logical.replace("_", "-")
        p.add_argument(flag, default=None, help=f"CSV column holding {logical}")


def _columns_from(args):
    cols = {}
    for logical in DEFAULT_COLUMNS:
        value = getattr(args, "col_" + logical)
        if value:
            cols[logical] = value
    return cols


def _add_ingest(sub):
    p = sub.add_parser("ingest", help="validate trips CSVs and report rejects")
    p.add_argument("--trips", action="append", required=True)
    p.add_argument("--out", help="write accepted rows as a normalized CSV")
    p.add_argument("--summary", help="write the reject tally as JSON")
    _add_column_flags(p)
    p.set_defaults(func=cmd_ingest)


def cmd_ingest(args):
    columns = _columns_from(args)
    all_records = []
    tally = {}
    for path in args.trips:
        try:
            records, rejects = parse_trips(path, columns)
        except FileNotFoundError:
            raise CliError(f"trips file not found: {path}")
        except SchemaError as exc:
            raise CliError(f"{path}: {exc}")
        all_records.extend(records)
        for reason, count in rejects.counts.items():
            tally[reason] = tally.get(reason, 0) + count
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(DEFAULT_COLUMNS))
            for r in all_records:
                writer.writerow([f"{r.pickup_time:%Y-%m-%d %H:%M:%S}",
                                 repr(r.pickup_lat), repr(r.pickup_lon),
                                 repr(r.dropoff_lat), repr(r.dropoff_lon),
                                 r.passenger_count])
    summary = {"accepted": len(all_records),
               "rejected": dict(sorted(tally.items()))}
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# build-graphs


def _add_build_graphs(sub):
    p = sub.add_parser("build-graphs", help="bucket trips into per-slot OD graphs")
    p.add_argument("--trips", action="append", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bbox", default=None,
                   help="minlat,minlon,maxlat,maxlon (default: <trips>.meta.json)")
    p.add_argument("--cell-km", type=float, default=None)
    p.add_argument("--slot-minutes", type=int, default=60)
    p.add_argument("--weight", default="passengers", choices=["passengers", "trips"])
    p.add_argument("--start-date", default=None)
    _add_column_flags(p)
    p.set_defaults(func=cmd_build_graphs)


def _sidecar_meta(trips_paths):
    for path in trips_paths:
        meta_path = str(path) + ".meta.json"
        if os.path.exists(meta_path):
            return _load_json(meta_path)
    return None


def build_store_from_args(args):
    from .geogrid import build_grid

    columns = _columns_from(args)
    bbox = _parse_bbox(args.bbox) if args.bbox else None
    cell_km = args.cell_km
    if bbox is None or cell_km is None:
        meta = _sidecar_meta(args.trips)
        if bbox is None:
            if meta is None or "bbox" not in meta:
                raise CliError("--bbox is required (no sidecar meta found)")
            bbox = tuple(meta["bbox"])
        if cell_km is None:
            cell_km = meta["cell_km"] if meta and "cell_km" in meta else 2.5
    try:
        grid = build_grid(bbox, cell_km)
    except ValueError as exc:
        raise CliError(str(exc))
    records = []
    total_rejects = {}
    for path in args.trips:
        try:
            recs, rejects = parse_trips(path, columns)
        except FileNotFoundError:
            raise CliError(f"trips file not found: {path}")
        except SchemaError as exc:
            raise CliError(f"{path}: {exc}")
        records.extend(recs)
        for reason, count in rejects.counts.items():
            total_rejects[reason] = total_rejects.get(reason, 0) + count
    if not records:
        raise CliError("no valid trips to bucket")
    start = date.fromisoformat(args.start_date) if args.start_date else None
    store, excluded = build_slot_graphs(records, grid, args.slot_minutes,
                                        start_date=start, weight_mode=args.weight)
    return store, excluded, total_rejects


def cmd_build_graphs(args):
    store, excluded, rejects = build_store_from_args(args)
    save_store(store, args.out)
    print(json.dumps({"days": store.days, "slots_per_day": store.slots_per_day,
                      "cells": store.n, "out_of_bbox": excluded,
                      "rejected": rejects}, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# train


def _add_train_flags(p):
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--dim", type=int, default=None, help="projected dimension z'")
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--embed-dim", type=int, default=None)
    p.add_argument("--ff-hidden", type=int, default=None)
    p.add_argument("--optimizer", choices=["adam", "sgd"], default=None)
    p.add_argument("--task", choices=["od", "demand", "both"], default=None)
    p.add_argument("--geo-threshold-km", type=float, default=None,
                   help="geographical neighbor threshold (default cell_km*sqrt(2)*1.01)")
    p.add_argument("--disable-ha", action="store_true")
    p.add_argument("--disable-nonlinear-channel", action="store_true")
    p.add_argument("--channels", default=None,
                   help=f"comma-separated subset of {','.join(DEFAULT_CHANNELS)}")
    p.add_argument("--config", help="JSON file with TrainConfig fields")


def _add_train(sub):
    p = sub.add_parser("train", help="train a model on a graph store")
    p.add_argument("--graphs", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--loss-log", default=None,
                   help="CSV of per-epoch losses (default <checkpoint>.losses.csv)")
    p.add_argument("--quiet", action="store_true")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)


def train_config_from_args(args):
    base = {}
    if getattr(args, "config", None):
        base = _load_json(args.config)
    merged = dict(base)

    def put(key, value):
        if value is not None:
            merged[key] = value

    put("epochs", args.epochs)
    put("learning_rate", args.lr)
    put("seed", args.seed)
    put("h", args.h)
    put("proj_dim", args.dim)
    put("heads", args.heads)
    put("embed_dim", args.embed_dim)
    put("ff_hidden", args.ff_hidden)
    put("optimizer", args.optimizer)
    put("task", args.task)
    put("geo_threshold_km", args.geo_threshold_km)
    if args.disable_ha:
        merged["use_ha"] = False
    channels = merged.get("channels", list(DEFAULT_CHANNELS))
    if args.channels:
        channels = [c.strip() for c in args.channels.split(",") if c.strip()]
    if args.disable_nonlinear_channel:
        channels = [c for c in channels if c != NONLINEAR_CHANNEL]
    merged["channels"] = channels
    merged.setdefault("seed", _env_seed())
    known = set(TrainConfig().to_dict())
    unknown = set(merged) - known
    if unknown:
        raise CliError(f"unknown train config fields: {', '.join(sorted(unknown))}")
    try:
        cfg = TrainConfig.from_dict({**TrainConfig().to_dict(), **merged})
        cfg.validate()
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad train config: {exc}")
    return cfg


def _load_store(path):
    try:
        return load_store(path)
    except FileNotFoundError:
        raise CliError(f"graph store not found: {path}")


def cmd_train(args):
    store = _load_store(args.graphs)
    cfg = train_config_from_args(args)
    progress = None
    if not args.quiet:
        def progress(epoch, train_loss, val_loss):
            val = "n/a" if val_loss is None else f"{val_loss:.6f}"
            print(f"epoch {epoch}: train {train_loss:.6f} val {val}", flush=True)
    try:
        result = train(store, cfg, progress=progress)
    except ValueError as exc:
        raise CliError(str(exc))
    save_result(args.checkpoint, result)
    loss_log_path = args.loss_log or (str(args.checkpoint) + ".losses.csv")
    write_loss_log(loss_log_path, result.loss_log)
    print(f"checkpoint written to {args.checkpoint} "
          f"(best epoch {result.meta['epoch']}, {result.skipped_targets} targets skipped)")
    return 0


# ---------------------------------------------------------------------------
# evaluate / predict / report


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", help="score a checkpoint on a split")
    p.add_argument("--graphs", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--out", default=None)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_evaluate)


def cmd_evaluate(args):
    store = _load_store(args.graphs)
    try:
        reports = metrics_mod.evaluate_checkpoint(args.checkpoint, store, split=args.split)
    except FileNotFoundError:
        raise CliError(f"checkpoint not found: {args.checkpoint}")
    except ValueError as exc:
        raise CliError(str(exc))
    if args.format == "csv":
        text = report_to_csv(reports)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
    else:
        _write_json(args.out, reports, args.no_timestamp)
    return 0


def report_to_csv(reports):
    """Long-form CSV: one row per (task, source, metric, threshold)."""
    lines = ["task,source,metric,threshold,value,count"]
    for task in sorted(reports):
        report = reports[task]
        if not isinstance(report, dict) or "mape" not in report:
            continue
        for source, block in (("model", report), ("baseline", report.get("baseline", {}))):
            for metric in ("mape", "mae"):
                for k in sorted(block.get(metric, {}), key=int):
                    value = block[metric][k]
                    count = block.get("counts", {}).get(k, "")
                    text = "" if value is None else repr(value)
                    lines.append(f"{task},{source},{metric},{k},{text},{count}")
    return "\n".join(lines) + "\n"


def _add_predict(sub):
    p = sub.add_parser("predict", help="predict one target slot from a checkpoint")
    p.add_argument("--graphs", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--day", type=int, required=True)
    p.add_argument("--slot", type=int, required=True)
    p.add_argument("--threshold", type=float, default=0.0,
                   help="emit OD entries strictly above this value")
    p.add_argument("--out", default=None)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_predict)


def cmd_predict(args):
    store = _load_store(args.graphs)
    try:
        params, ha, meta = load_checkpoint(args.checkpoint)
    except FileNotFoundError:
        raise CliError(f"checkpoint not found: {args.checkpoint}")
    except ValueError as exc:
        raise CliError(str(exc))
    if meta["grid"] != store.grid.to_dict():
        raise CliError("checkpoint grid does not match the graph store grid")
    model_cfg = ModelConfig.from_dict(meta["model_config"])
    model = ODFlowModel(store, params, model_cfg, meta["degree_norms"],
                        ha if model_cfg.use_ha else None)
    if not (1 <= args.slot <= store.slots_per_day):
        raise CliError(f"slot must lie in [1, {store.slots_per_day}]")
    key = store.key_of_abs(args.day * store.slots_per_day + (args.slot - 1))
    if not model.eligible(key):
        earliest = model.earliest_eligible()
        hint = (f"; earliest valid target is day {earliest.day_index} slot {earliest.slot}"
                if earliest else "; no slot in this store has enough history")
        raise CliError(f"target day {args.day} slot {args.slot} lacks history{hint}")
    delta_hat, od_hat = model.predict(key)
    triplets = [[i + 1, j + 1, float(od_hat[i, j])]
                for i in range(store.n) for j in range(store.n)
                if od_hat[i, j] > args.threshold]
    payload = {
        "target": {"day": key.day_index, "slot": key.slot, "dow": key.day_of_week},
        "demand": [float(v) for v in delta_hat],
        "od": triplets,
        "emission_threshold": args.threshold,
        "config": meta["train_config"],
    }
    _write_json(args.out, payload, args.no_timestamp)
    return 0


def _add_report(sub):
    p = sub.add_parser("report", help="re-render a JSON metric report")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)


def cmd_report(args):
    payload = _load_json(args.input)
    if args.format == "json":
        _write_json(args.out, payload, no_timestamp=True)
        return 0
    text = report_to_csv(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# sweeps


def _flat_metrics(reports):
    row = {}
    for task in ("od", "demand"):
        block = reports.get(task, {})
        for metric in ("mape", "mae"):
            for k in ("0", "3", "5"):
                row[f"{task}_{metric}_{k}"] = block.get(metric, {}).get(k)
    return row


def _sweep_leg(store, cfg: TrainConfig):
    result = train(store, cfg)
    import tempfile
    with tempfile.NamedTemporaryFile(suffix=".ckpt", delete=False) as tmp:
        path = tmp.name
    try:
        save_result(path, result)
        reports = metrics_mod.evaluate_checkpoint(path, store, split="test")
    finally:
        os.unlink(path)
    return reports


def _add_sweep_grid(sub):
    p = sub.add_parser("sweep-grid", help="re-grid, retrain, and score per cell length")
    p.add_argument("--trips", action="append", required=True)
    p.add_argument("--cells", required=True, help="comma-separated km lengths")
    p.add_argument("--bbox", default=None)
    p.add_argument("--cell-km", type=float, default=None, help=argparse.SUPPRESS)
    p.add_argument("--slot-minutes", type=int, default=60)
    p.add_argument("--weight", default="passengers", choices=["passengers", "trips"])
    p.add_argument("--start-date", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--no-timestamp", action="store_true")
    _add_column_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep_grid)


def cmd_sweep_grid(args):
    lengths = sorted(_parse_list(args.cells, float))
    if not lengths:
        raise CliError("--cells must name at least one length")
    base_cfg = train_config_from_args(args)
    rows = []
    for cell_km in lengths:
        leg_args = argparse.Namespace(**vars(args))
        leg_args.cell_km = cell_km
        try:
            store, _, _ = build_store_from_args(leg_args)
            reports = _sweep_leg(store, base_cfg)
            row = {"cell_km": cell_km, "failed": None, **_flat_metrics(reports)}
        except CliError:
            raise
        except Exception as exc:   # a failed leg must not kill the sweep
            row = {"cell_km": cell_km, "failed": f"{type(exc).__name__}: {exc}"}
        rows.append(row)
        print(f"cell {cell_km} km: " + ("ok" if row.get("failed") is None
                                        else f"FAILED ({row['failed']})"), flush=True)
    _emit_table(args, {"sweep": "grid", "rows": rows}, key="cell_km")
    return 0


def _add_sweep_hours(sub):
    p = sub.add_parser("sweep-hours", help="retrain and score per non-linear horizon h")
    p.add_argument("--graphs", required=True)
    p.add_argument("--hours", required=True, help="comma-separated h values")
    p.add_argument("--ablation", action="store_true",
                   help="add a row with the non-linear channel disabled")
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--no-timestamp", action="store_true")
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep_hours)


def cmd_sweep_hours(args):
    hours = sorted(_parse_list(args.hours, int))
    if not hours:
        raise CliError("--hours must name at least one value")
    store = _load_store(args.graphs)
    base_cfg = train_config_from_args(args)
    legs = [(h, False) for h in hours]
    if args.ablation:
        legs.append((base_cfg.h, True))
    rows = []
    for h, ablate in legs:
        d = base_cfg.to_dict()
        d["h"] = h
        if ablate:
            d["channels"] = [c for c in d["channels"] if c != NONLINEAR_CHANNEL]
        cfg = TrainConfig.from_dict(d)
        label = "disabled" if ablate else h
        try:
            reports = _sweep_leg(store, cfg)
            row = {"h": label, "failed": None, **_flat_metrics(reports)}
        except Exception as exc:
            row = {"h": label, "failed": f"{type(exc).__name__}: {exc}"}
        rows.append(row)
        print(f"h={label}: " + ("ok" if row.get("failed") is None
                                else f"FAILED ({row['failed']})"), flush=True)
    _emit_table(args, {"sweep": "hours", "rows": rows}, key="h")
    return 0


def _emit_table(args, payload, key):
    if args.format == "csv":
        rows = payload["rows"]
        metric_cols = [f"{task}_{metric}_{k}" for task in ("od", "demand")
                       for metric in ("mape", "mae") for k in ("0", "3", "5")]
        lines = [",".join([key, "failed"] + metric_cols)]
        for row in rows:
            cells = [str(row.get(key)), row.get("failed") or ""]
            for col in metric_cols:
                value = row.get(col)
                cells.append("" if value is None else repr(value))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _write_json(args.out, payload, args.no_timestamp)


# ---------------------------------------------------------------------------


def build_parser():
    parser = Parser(prog="odflow",
                    description="origin-destination passenger flow prediction")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synth(sub)
    _add_ingest(sub)
    _add_build_graphs(sub)
    _add_train(sub)
    _add_evaluate(sub)
    _add_predict(sub)
    _add_sweep_grid(sub)
    _add_sweep_hours(sub)
    _add_report(sub)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
