"""The benchmark's workloads: the inputs each one makes from its seed and the
odflow commands of one round.

Every workload runs the same commands, so that every end-to-end metric
has a value on every workload; the input sizes decide which layers dominate.
synth, ingest and build-graphs work on a trips CSV that synth writes at
lowered rates. train, evaluate and predict work on a graph store that set-up
writes from the generator's counts at the commuter preset's own rates: the
model's error is steady across seeds only when each cell sees tens of trips
per slot, and a CSV of that many trips would take minutes to write and parse.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

SLOTS_PER_DAY = 24          # 60-minute slots, the CLI default
HISTORY_DAYS = 7            # the linear channels look back 7 days
LAST_HOURS = 6              # default h of the non-linear channel
VAL_FRAC = 0.10             # TrainConfig default, kept as is
TRAIN_SEED = 0              # the seed varies the data, not the initial weights
PREDICTS = 3                # predict commands per round, for a steadier figure


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int               # rows = cols
    trip_days: int          # days of the trips CSV
    trip_rates: dict        # commuter preset overrides for the CSV, via synth --config
    store_days: int         # days of the model's graph store
    store_rates: dict       # commuter preset overrides for the store
    model: dict             # TrainConfig overrides of the default model shape
    epochs: int
    train_frac: float
    why: str
    data_repeats: int = 2   # synth, ingest, build-graphs passes per round, likewise

    @property
    def n(self):
        return self.grid * self.grid

    def split(self):
        """(train, val, test) day ranges of the store, by the trainer's rule."""
        n_trainval = math.floor(self.store_days * self.train_frac)
        n_val = math.floor(n_trainval * VAL_FRAC)
        return (range(0, n_trainval - n_val), range(n_trainval - n_val, n_trainval),
                range(n_trainval, self.store_days))

    def targets(self, days):
        """(day, slot) keys in ``days`` that have 7 days and h hours of history.

        The earliest slot any channel reads is 7 days and one slot back (the
        previous-hour channel) or h slots back (the non-linear channel).
        """
        earliest = max(HISTORY_DAYS * SLOTS_PER_DAY + 1, LAST_HOURS)
        return [(d, s) for d in days for s in range(1, SLOTS_PER_DAY + 1)
                if d * SLOTS_PER_DAY + s - 1 >= earliest]

    def train_steps(self):
        return self.epochs * len(self.targets(self.split()[0]))

    def predict_targets(self, seed):
        """PREDICTS test slots, chosen from the seed."""
        test = self.targets(self.split()[2])
        return [test[(seed + k * len(test) // PREDICTS) % len(test)] for k in range(PREDICTS)]


LOW_5X5 = {"base_rate": 0.5, "morning_rate": 2.0, "evening_rate": 2.0}
LOW_10X10 = {"base_rate": 0.02, "morning_rate": 0.5, "evening_rate": 0.5}

# Two epochs over a 12-day store are 94 optimizer steps: with fewer, the
# model's demand MAPE-0 swings by half between seeds.
WORKLOADS = {w.name: w for w in (
    Workload("ingest-5x5", 5, 5, LOW_5X5, 12, {}, {"proj_dim": 43, "heads": 1},
             epochs=2, train_frac=0.75,
             why="about 70k trips through CSV write, parse, assign_cell and the "
                 "JSONL store, beside a small model (z'=43, one head)"),
    Workload("train-5x5", 5, 3, LOW_5X5, 12, {}, {}, epochs=2, train_frac=0.75,
             why="94 steps of the default model on 25 cells: small matrices, so "
                 "per-op Python and tape overhead dominate"),
    Workload("infer-10x10", 10, 2, LOW_10X10, 10, {"base_rate": 0.1}, {},
             epochs=1, train_frac=0.8,
             why="100 cells: BLAS-sized matrices in every forward pass, and "
                 "evaluate reruns the spatial pass of each history slot per target",
             data_repeats=4),
)}


class Files:
    """Paths of one round's inputs and outputs inside a work directory."""

    def __init__(self, root):
        self.root = Path(root)
        self.synth_config = self.root / "synth.json"
        self.train_config = self.root / "train.json"
        self.trips = self.root / "trips.csv"
        self.trips_meta = self.root / "trips.csv.meta.json"    # written by synth
        self.ingest_summary = self.root / "ingest.json"
        self.graphs = self.root / "graphs.jsonl"                # built from the CSV
        self.store = self.root / "store.jsonl"                  # written in set-up
        self.checkpoint = self.root / "model.ckpt"
        self.losses = self.root / "model.ckpt.losses.csv"      # train's default
        self.report = self.root / "report.json"

    def prediction(self, k):
        return self.root / f"predict-{k}.json"


def write_inputs(w: Workload, seed, files: Files):
    """The two config files a round reads."""
    files.root.mkdir(parents=True, exist_ok=True)
    files.synth_config.write_text(json.dumps(w.trip_rates, sort_keys=True) + "\n")
    files.train_config.write_text(json.dumps(
        {"epochs": w.epochs, "seed": TRAIN_SEED, "train_frac": w.train_frac, **w.model},
        sort_keys=True) + "\n")


def round_commands(w: Workload, seed, files: Files):
    """[(step name, odflow argv)] of one round, in the order they must run.

    A step name is its command with a repeat number: the data commands run
    ``w.data_repeats`` times over the same CSV and predict runs for PREDICTS
    test slots, so that each round gives several samples of the short
    commands. The first data pass comes first, since ingest and build-graphs
    read synth's CSV; the others are spread between the model commands, so
    that a command's samples come from the whole round and not from one
    moment of it.
    """
    f = files
    model = ["--graphs", str(f.store), "--checkpoint", str(f.checkpoint)]
    data = [
        ("synth", ["synth", "--grid", f"{w.grid}x{w.grid}", "--days", str(w.trip_days),
                   "--seed", str(seed), "--preset", "commuter",
                   "--config", str(f.synth_config), "--out", str(f.trips)]),
        ("ingest", ["ingest", "--trips", str(f.trips), "--summary", str(f.ingest_summary)]),
        ("build-graphs", ["build-graphs", "--trips", str(f.trips), "--out", str(f.graphs)]),
    ]
    passes = [[(f"{step}-{k}", argv) for step, argv in data]
              for k in range(w.data_repeats)]
    later = [
        ("train-0", ["train", *model, "--config", str(f.train_config), "--quiet"]),
        ("evaluate-0", ["evaluate", *model, "--split", "test", "--out", str(f.report),
                        "--no-timestamp"]),
    ] + [(f"predict-{k}", ["predict", *model, "--day", str(day), "--slot", str(slot),
                           "--out", str(f.prediction(k)), "--no-timestamp"])
         for k, (day, slot) in enumerate(w.predict_targets(seed))]
    steps = passes[0]
    for i, step in enumerate(later, 1):
        steps.append(step)
        for k in range(1, w.data_repeats):
            if k * len(later) // w.data_repeats == i:
                steps.extend(passes[k])
    return steps


def command_of(step):
    """The odflow command a step name runs: 'build-graphs-2' -> 'build-graphs'."""
    return step.rsplit("-", 1)[0]
