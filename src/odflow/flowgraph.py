"""Per-slot OD request counts, and semantic neighbor sets.

A GraphStore holds one (days * slots_per_day, n, n) int32 count array:
entry [a, i - 1, j - 1] counts the requests from cell i to cell j in
absolute slot a, and slots with no trips are all zero. On disk a store is
JSON lines, one record per slot with its nonzero entries as 1-based
(origin, dest, weight) triplets in row-major order; SlotGraph is that record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date

import numpy as np

from .geogrid import GridSpec, assign_cell
from .ingest import SlotKey, slot_of, slots_per_day


@dataclass
class SlotGraph:
    """One store record: the OD triplets (origin, dest, weight) of one
    (day, slot), 1-based, any order; a pair listed twice adds up."""

    key: SlotKey
    n: int
    triplets: list

    def dense(self) -> np.ndarray:
        return od_counts(self.triplets, self.n)


def forward_neighbors(g: SlotGraph, i: int) -> set:
    """Cells receiving at least one request from cell i (self excluded)."""
    _check_cell(g, i)
    return {j for a, j, w in g.triplets if a == i and w > 0 and j != i}


def backward_neighbors(g: SlotGraph, i: int) -> set:
    """Cells sending at least one request to cell i (self excluded)."""
    _check_cell(g, i)
    return {a for a, j, w in g.triplets if j == i and w > 0 and a != i}


def degrees(g: SlotGraph, k: int):
    """(in_degree, out_degree) of cell k: column and row sums of the OD matrix."""
    _check_cell(g, k)
    ind = sum(w for a, j, w in g.triplets if j == k)
    outd = sum(w for a, j, w in g.triplets if a == k)
    return ind, outd


def _check_cell(g, i):
    if not 1 <= i <= g.n:
        raise ValueError(f"cell index {i} outside [1, {g.n}]")


def od_counts(triplets, n) -> np.ndarray:
    """(n, n) float64 counts from 1-based (origin, dest, weight) triplets; a
    ValueError for a cell outside [1, n], a weight that is not a non-negative
    integer, or a count beyond int32."""
    t = np.array(triplets if len(triplets) else np.zeros((0, 3), dtype=np.int64))
    if t.ndim != 2 or t.shape[1] != 3 or t.dtype.kind not in "iu":
        raise ValueError("OD entries must be [origin, dest, weight] triples of "
                         "integers; weights must be non-negative integers")
    cells, w = t[:, :2], t[:, 2]
    bad = cells[(cells < 1) | (cells > n)]
    if bad.size:
        raise ValueError(f"cell {bad[0]} outside [1, {n}]")
    if w.size and w.min() < 0:
        raise ValueError(f"weight {w.min()} is negative")
    od = np.bincount((cells[:, 0] - 1) * n + (cells[:, 1] - 1), weights=w, minlength=n * n)
    if od.max() > np.iinfo(np.int32).max:
        raise ValueError(f"count {int(od.max())} exceeds the int32 range")
    return od.reshape(n, n)


class GraphStore:
    """OD counts of every (day, slot) from ``start_date`` on, in one
    (slots, n, n) int32 array ``counts``. The constructor also takes a list
    of SlotGraph records, one per slot, and places each by its key."""

    def __init__(self, grid: GridSpec, slot_minutes: int, start_date: date,
                 counts, weight_mode="passengers"):
        self.grid = grid
        self.slot_minutes = slot_minutes
        self.start_date = start_date
        self.weight_mode = weight_mode
        self.slots_per_day = slots_per_day(slot_minutes)
        if isinstance(counts, np.ndarray):
            if counts.ndim != 3 or counts.shape[1:] != (grid.n, grid.n):
                raise ValueError(f"counts of shape {counts.shape} are not (slots, n, n)")
            self.counts = counts.astype(np.int32, copy=False)
            return
        self.counts = np.zeros((len(counts), grid.n, grid.n), dtype=np.int32)
        placed = set()
        for g in counts:
            a = self.abs_index(g.key)
            if not 0 <= a < len(counts) or g.key != self.key_of_abs(a) or a in placed:
                raise ValueError(f"record {g.key} is repeated, out of range or has a "
                                 f"day of week that disagrees with {start_date}")
            self.counts[a] = od_counts(g.triplets, grid.n)
            placed.add(a)

    @property
    def n(self):
        return self.grid.n

    @property
    def days(self):
        return len(self.counts) // self.slots_per_day

    def abs_index(self, key: SlotKey) -> int:
        return key.day_index * self.slots_per_day + (key.slot - 1)

    def key_of_abs(self, abs_index: int) -> SlotKey:
        day, s = divmod(abs_index, self.slots_per_day)
        return SlotKey(day, s + 1, (self.start_date.weekday() + day) % 7)

    def od(self, key: SlotKey) -> np.ndarray:
        """The OD counts of one slot as a float64 (n, n) matrix."""
        return self.counts[self.abs_index(key)].astype(np.float64)

    def day_counts(self, days) -> np.ndarray:
        """Counts of the given whole days as a (len(days), S, n, n) array."""
        whole = self.counts[:self.days * self.slots_per_day]
        by_day = whole.reshape(self.days, self.slots_per_day, self.n, self.n)
        return by_day[list(days)]


def build_slot_graphs(trips, grid: GridSpec, slot_minutes: int, start_date=None,
                      weight_mode="passengers"):
    """Aggregate accepted trips into a GraphStore of whole days.

    Trips with an endpoint outside the bbox are excluded and tallied.
    Returns (GraphStore, excluded_count).
    """
    if weight_mode not in ("passengers", "trips"):
        raise ValueError(f"unknown weight mode {weight_mode!r}")
    if start_date is None:
        if not trips:
            raise ValueError("cannot infer a start date from zero trips")
        start_date = min(t.pickup_time for t in trips).date()
    per_day = slots_per_day(slot_minutes)
    n = grid.n

    flat, weights = [], []
    excluded = 0
    for trip in trips:
        origin = assign_cell(grid, trip.pickup_lat, trip.pickup_lon)
        dest = assign_cell(grid, trip.dropoff_lat, trip.dropoff_lon)
        if origin is None or dest is None:
            excluded += 1
            continue
        key = slot_of(trip.pickup_time, slot_minutes, start_date)
        abs_idx = key.day_index * per_day + (key.slot - 1)
        flat.append((abs_idx * n + origin.index - 1) * n + dest.index - 1)
        weights.append(trip.passenger_count if weight_mode == "passengers" else 1)

    flat = np.array(flat, dtype=np.int64)
    days = int(flat.max()) // (per_day * n * n) + 1 if flat.size else 0
    counts = np.zeros(days * per_day * n * n, dtype=np.int32)
    np.add.at(counts, flat, np.array(weights, dtype=np.int32))
    return GraphStore(grid, slot_minutes, start_date, counts.reshape(-1, n, n),
                      weight_mode), excluded


# ---------------------------------------------------------------------------
# persistence: JSON lines, one record per (day, slot), plus a sidecar meta file


def _meta_path(path):
    return str(path) + ".meta.json"


def save_store(store: GraphStore, path):
    with open(path, "w", encoding="utf-8") as fh:
        for a, od in enumerate(store.counts):
            key = store.key_of_abs(a)
            i, j = np.nonzero(od)
            record = {
                "day": key.day_index,
                "slot": key.slot,
                "dow": key.day_of_week,
                "od": np.stack([i + 1, j + 1, od[i, j]], axis=1).tolist(),
            }
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")
    meta = {
        "grid": store.grid.to_dict(),
        "slot_minutes": store.slot_minutes,
        "start_date": store.start_date.isoformat(),
        "weight": store.weight_mode,
        "days": store.days,
    }
    with open(_meta_path(path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_store(path) -> GraphStore:
    """Read a store, checking each record: whole days in slot order, days of
    week, cells and weights. A ValueError names the file and the line."""
    meta_path = _meta_path(path)
    with open(meta_path, "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
            grid = GridSpec.from_dict(meta["grid"])
            slots = meta["days"] * slots_per_day(meta["slot_minutes"])
            store = GraphStore(grid, meta["slot_minutes"], date.fromisoformat(meta["start_date"]),
                               np.zeros((slots, grid.n, grid.n), dtype=np.int32), meta["weight"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{meta_path}: not a graph store meta file ({exc!r})") from None
    a = lineno = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if a == slots:
                    raise ValueError(f"a record beyond the meta's {store.days} days")
                got, want = (rec["day"], rec["slot"], rec["dow"]), store.key_of_abs(a)
                if got != (want.day_index, want.slot, want.day_of_week):
                    raise ValueError(f"found day {got[0]} slot {got[1]} dow {got[2]} where day "
                                     f"{want.day_index} slot {want.slot} dow {want.day_of_week} "
                                     "belongs")
                store.counts[a] = od_counts(rec["od"], grid.n)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}, line {lineno}: invalid JSON ({exc.msg})") from None
            except KeyError as exc:
                raise ValueError(f"{path}, line {lineno}: no field {exc}") from None
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            a += 1
    if a < slots:
        raise ValueError(f"{path}, line {lineno}: the store ends before day "
                         f"{a // store.slots_per_day} slot {a % store.slots_per_day + 1} "
                         f"of the meta's {store.days} days")
    return store
