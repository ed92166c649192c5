"""The traced run: the same odflow CLI commands, driven in-process, with each
layer's public functions wrapped at the name their caller looks them up by.

Each wrapped call becomes a span [name, start, end, parent, child_time, tag]
kept in memory; a span's self time is its duration minus the time its child
spans cover. Every forward pass also fills the model's attention ``sink``,
and the sink is checked against the properties of the method outside the
forward span.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import time

from checks import CheckError, check_sink, check_spans_fired


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, tag=None):
        """``fn`` recording one span per call; ``tag(*args)`` is kept with it."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0, tag(*args, **kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span[1], span[2] = start, end
                if parent >= 0:
                    spans[parent][4] += end - start

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _, tag in self.spans:
                fh.write(json.dumps([name, start, end, parent, tag]))
                fh.write("\n")


def _key_tag(params, cfg, grid, key, *rest, **kwargs):
    return (key.day_index, key.slot)


def _tape_nodes(tape, loss):
    return len(tape._nodes)


def install(tracer, violations):
    """Wrap the layers' public functions; returns a function that undoes it.

    A forward pass whose sink breaks a property of the method appends the
    CheckError to ``violations``: raising inside the program would only turn
    into a failed command.
    """
    import odflow.cli as cli
    import odflow.flowgraph as flowgraph
    import odflow.metrics as metrics
    import odflow.model as model
    import odflow.synthgen as synthgen
    import odflow.tensorcore as tc
    import odflow.trainer as trainer
    import odflow.transfer as transfer
    from odflow.spatial import SlotContext

    HA = transfer.HistoricalAverage
    # (owner, attribute looked up by the caller, span name, tag)
    table = [
        (synthgen, "generate", "synthgen.generate", None),
        (synthgen, "generate_counts", "synthgen.generate_counts", None),
        (cli, "parse_trips", "ingest.parse_trips", None),
        (flowgraph, "assign_cell", "geogrid.assign_cell", None),
        (cli, "build_slot_graphs", "flowgraph.build_slot_graphs", None),
        (cli, "save_store", "flowgraph.save_store", None),
        (cli, "load_store", "flowgraph.load_store", None),
        (cli, "train", "trainer.train", None),
        (trainer, "degree_normalizers", "trainer.degree_normalizers", None),
        (HA, "build", "transfer.ha_build", None),
        (trainer.Adam, "step", "trainer.optimizer_step", None),
        (tc, "smooth_l1", "tensorcore.smooth_l1", None),
        (tc.Tape, "backward", "tensorcore.backward", _tape_nodes),
        (tc, "load_tensors", "tensorcore.load_tensors", None),
        (model.ODFlowModel, "__init__", "model.init", None),
        (model, "build_initial_embeddings", "spatial.build_initial_embeddings", _key_tag),
        (SlotContext, "build", "spatial.slot_context", None),
        (model, "spatial_layer", "spatial.spatial_layer", None),
        (model, "temporal_layer", "temporal.temporal_layer", None),
        (transfer, "demand_head", "transfer.heads", None),
        (transfer, "transfer_probabilities", "transfer.heads", None),
        (transfer, "compose_od", "transfer.heads", None),
        (HA, "demand_of", "transfer.ha_lookup", None),
        (HA, "od_of", "transfer.ha_lookup", None),
        (metrics, "evaluate_model", "metrics.evaluate_model", None),
    ]
    saved = []
    for owner, attr, name, tag in table:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__, tag))
        else:
            wrapped = tracer.wrap(name, raw, tag)
        saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    forward = tracer.wrap("model.forward", vars(model.ODFlowModel)["forward"])

    def check(sink):
        try:
            check_sink(sink)
        except CheckError as exc:
            violations.append(exc)

    # a span of its own, so that the check counts in no layer's self time
    check = tracer.wrap("odbench.check_sink", check)

    def forward_with_sink(self, target_key, sink=None):
        if sink is not None:
            return forward(self, target_key, sink)
        sink = {}
        result = forward(self, target_key, sink)
        check(sink)
        return result

    saved.append((model.ODFlowModel, "forward", vars(model.ODFlowModel)["forward"]))
    model.ODFlowModel.forward = forward_with_sink

    def undo():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return undo


def run_inprocess(commands, tracer=None):
    """Run [(step, argv)] through odflow.cli.main in this process, in order.

    Returns [(step, exit code, wall seconds, stdout)]; stops at the first
    command that fails, as a shell pipeline with ``set -e`` would.
    """
    import odflow.cli as cli

    results = []
    for step, argv in commands:
        main = tracer.wrap("cli.main", cli.main, lambda argv: argv[0]) if tracer else cli.main
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        results.append((step, code, time.perf_counter() - start, out.getvalue()))
        if code != 0:
            break
    return results


# ---------------------------------------------------------------------------
# per-layer metrics


REQUIRED_SPANS = (
    "cli.main", "synthgen.generate", "synthgen.generate_counts", "ingest.parse_trips",
    "geogrid.assign_cell", "flowgraph.build_slot_graphs", "flowgraph.save_store",
    "flowgraph.load_store", "trainer.train", "trainer.degree_normalizers",
    "transfer.ha_build", "trainer.optimizer_step", "tensorcore.smooth_l1",
    "tensorcore.backward", "tensorcore.load_tensors", "model.init", "model.forward",
    "spatial.build_initial_embeddings", "spatial.slot_context", "spatial.spatial_layer",
    "temporal.temporal_layer", "transfer.heads", "transfer.ha_lookup",
    "metrics.evaluate_model",
)

# per-forward shares, taken over the forward passes of the evaluate command
PER_FORWARD = (
    ("spatial.build_initial_embeddings", "spatial.build_initial_embeddings_ms"),
    ("spatial.slot_context", "spatial.slot_context_ms"),
    ("spatial.spatial_layer", "spatial.spatial_layer_ms"),
    ("temporal.temporal_layer", "temporal.temporal_layer_ms"),
    ("transfer.heads", "transfer.heads_ms"),
    ("transfer.ha_lookup", "transfer.ha_lookup_ms"),
)

# (span, unit, scale, self time?) reported as the median per call, with the
# call count; build_slot_graphs and evaluate_model report self time, without
# their assign_cell and forward-pass children
PER_CALL = (
    ("synthgen.generate", "s", 1.0, False),
    ("synthgen.generate_counts", "s", 1.0, False),
    ("ingest.parse_trips", "s", 1.0, False),
    ("geogrid.assign_cell", "s", 1.0, False),
    ("flowgraph.build_slot_graphs", "s", 1.0, True),
    ("flowgraph.save_store", "s", 1.0, False),
    ("flowgraph.load_store", "s", 1.0, False),
    ("tensorcore.load_tensors", "s", 1.0, False),
    ("model.init", "s", 1.0, False),
    ("tensorcore.smooth_l1", "ms", 1e3, False),
    ("tensorcore.backward", "ms", 1e3, False),
    ("trainer.optimizer_step", "ms", 1e3, False),
    ("trainer.degree_normalizers", "s", 1.0, False),
    ("transfer.ha_build", "s", 1.0, False),
    ("metrics.evaluate_model", "s", 1.0, True),
)


def layer_metrics(tracer):
    """{metric: (value, unit)} from the spans of one traced round."""
    spans = tracer.spans
    command = []        # the CLI command each span ran under
    in_forward = []     # whether a model.forward span encloses it
    for name, _, _, parent, _, tag in spans:
        if parent < 0:
            command.append(tag if name == "cli.main" else None)
            in_forward.append(False)
        else:
            command.append(command[parent])
            in_forward.append(in_forward[parent] or spans[parent][0] == "model.forward")

    def select(name, cmd=None, forward_only=False):
        return [i for i, s in enumerate(spans) if s[0] == name
                and (cmd is None or command[i] == cmd)
                and (not forward_only or in_forward[i])]

    def duration(i, own=False):
        s = spans[i]
        return s[2] - s[1] - (s[4] if own else 0.0)

    out = {}
    check_spans_fired({name: len(select(name)) for name in REQUIRED_SPANS}, REQUIRED_SPANS)
    for span, unit, scale, own in PER_CALL:
        idx = select(span)
        out[f"{span}_{unit}"] = (statistics.median(duration(i, own) for i in idx) * scale, unit)
        out[f"{span}_calls"] = (len(idx), "count")

    forwards = select("model.forward", "evaluate")
    out["model.forward_ms"] = (statistics.median(duration(i) for i in forwards) * 1e3, "ms")
    out["model.forward_calls"] = (len(forwards), "count")
    train_forwards = select("model.forward", "train")
    out["model.train_forward_ms"] = (
        statistics.median(duration(i) for i in train_forwards) * 1e3, "ms")
    for span, metric in PER_FORWARD:
        total = sum(duration(i) for i in select(span, "evaluate", forward_only=True))
        out[metric] = (total / len(forwards) * 1e3, "ms")
    layers = select("spatial.spatial_layer", "evaluate", forward_only=True)
    out["spatial.spatial_layer_calls"] = (len(layers) / len(forwards), "count")
    out["spatial.distinct_slots"] = (
        len({spans[i][5] for i in select("spatial.build_initial_embeddings", "evaluate")}),
        "count")
    out["tensorcore.tape_nodes"] = (
        statistics.median(spans[i][5] for i in select("tensorcore.backward")), "count")
    out["cli.self_s"] = (sum(duration(i, own=True) for i in select("cli.main")), "s")
    out["odbench.sinks_checked"] = (len(select("odbench.check_sink")), "count")
    return out
