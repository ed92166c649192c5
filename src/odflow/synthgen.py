"""Deterministic synthetic trip generator with planted structure.

Counts per (origin, destination, slot) are Poisson draws from a rate that
superimposes: a uniform background, morning and evening commuter flows
between residential and commercial cells, a weekly weekday/weekend
modulation, return trips seeded by the *realized* outflows a fixed number
of slots earlier (so the recent window carries signal that schedule
averages cannot), and optional event shocks that scale flows touching a
cell set during a slot range of one day.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from datetime import date, datetime, timedelta

import numpy as np

from .geogrid import bbox_for_grid, build_grid

# Points keep this far (degrees) from their cell's edges, so that writing them
# with %.6f (an error of at most 5e-7 degrees) cannot move them to another cell.
JITTER_MARGIN_DEG = 1e-5


@dataclass(frozen=True)
class EventShock:
    day: int
    slot_lo: int
    slot_hi: int
    cells: tuple
    multiplier: float


@dataclass(frozen=True)
class SynthConfig:
    rows: int = 5
    cols: int = 5
    days: int = 28
    seed: int = 7
    cell_km: float = 2.5
    slot_minutes: int = 60
    start_date: date = date(2024, 1, 1)
    residential: tuple = ()
    commercial: tuple = ()
    base_rate: float = 16.0
    morning_rate: float = 24.0   # per residential->commercial pair, slots 8-10
    evening_rate: float = 24.0   # per commercial->residential pair, slots 17-19
    morning_slots: tuple = (8, 9, 10)
    evening_slots: tuple = (17, 18, 19)
    return_lag: int = 6
    return_frac: float = 0.4
    weekend_multiplier: float = 0.5
    events: tuple = field(default_factory=tuple)

    def validate(self):
        n = self.rows * self.cols
        for cell in tuple(self.residential) + tuple(self.commercial):
            if not 1 <= cell <= n:
                raise ValueError(f"planted cell {cell} outside grid of {n}")
        for rate in (self.base_rate, self.morning_rate, self.evening_rate,
                     self.return_frac):
            if rate < 0:
                raise ValueError("intensities must be non-negative")
        for ev in self.events:
            if not 0 <= ev.day < self.days:
                raise ValueError(f"event day {ev.day} outside dataset")
            for cell in ev.cells:
                if not 1 <= cell <= n:
                    raise ValueError(f"event cell {cell} outside grid of {n}")

    def to_dict(self):
        d = asdict(self)
        d["start_date"] = self.start_date.isoformat()
        d["events"] = [asdict(e) for e in self.events]
        return d


def preset(name, rows=5, cols=5, days=28, seed=7):
    """Named configurations: 'commuter' plants the rush-hour and return-lag
    structure; 'commuter+events' adds shocks on one training day and one
    late (test-period) day, deliberately not a week apart."""
    n = rows * cols
    residential = tuple(range(1, min(2 * cols, n) + 1))
    commercial = tuple(range(max(1, n - 2 * cols + 1), n + 1))
    base = SynthConfig(rows=rows, cols=cols, days=days, seed=seed,
                       residential=residential, commercial=commercial)
    if name == "commuter":
        return base
    if name == "commuter+events":
        mid = (rows // 2) * cols + cols // 2 + 1
        shock_cells = tuple(sorted({mid, 1, n}))
        events = []
        for day in (min(9, days - 1), min(days - 4, days - 1)):
            events.append(EventShock(day=day, slot_lo=11, slot_hi=16,
                                     cells=shock_cells, multiplier=3.0))
        return SynthConfig(**{**base.__dict__, "events": tuple(events)})
    raise ValueError(f"unknown preset {name!r}")


def _rates_for_slot(cfg: SynthConfig, day, slot, realized, n):
    rate = np.full((n, n), cfg.base_rate)
    dow = (cfg.start_date.weekday() + day) % 7
    commuter_scale = cfg.weekend_multiplier if dow >= 5 else 1.0
    res = np.array(cfg.residential, dtype=int) - 1
    com = np.array(cfg.commercial, dtype=int) - 1
    if slot in cfg.morning_slots and res.size and com.size:
        rate[np.ix_(res, com)] += cfg.morning_rate * commuter_scale
    if slot in cfg.evening_slots and res.size and com.size:
        rate[np.ix_(com, res)] += cfg.evening_rate * commuter_scale
    abs_idx = day * (1440 // cfg.slot_minutes) + (slot - 1)
    if cfg.return_frac > 0 and abs_idx >= cfg.return_lag:
        rate += cfg.return_frac * realized[abs_idx - cfg.return_lag].T
    for ev in cfg.events:
        if ev.day == day and ev.slot_lo <= slot <= ev.slot_hi:
            cells = np.array(ev.cells, dtype=int) - 1
            rate[cells, :] *= ev.multiplier
            rate[:, cells] *= ev.multiplier
    return rate


def generate_counts(cfg: SynthConfig):
    """Realized (day, slot) -> n x n count matrices, fully seed-determined."""
    cfg.validate()
    n = cfg.rows * cfg.cols
    slots = 1440 // cfg.slot_minutes
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    realized = []
    for day in range(cfg.days):
        for slot in range(1, slots + 1):
            rate = _rates_for_slot(cfg, day, slot, realized, n)
            realized.append(rng.poisson(rate))
    return realized, rng


def generate(cfg: SynthConfig, out_path):
    """Write the trips CSV (and a sidecar meta JSON with the matching bbox).

    Returns (trip_count, bbox). Byte-identical output for identical
    configs: the RNG stream is consumed in one fixed order.
    """
    n = cfg.rows * cfg.cols
    slots = 1440 // cfg.slot_minutes
    bbox = bbox_for_grid(cfg.rows, cfg.cols, cfg.cell_km)
    grid = build_grid(bbox, cfg.cell_km)
    if (grid.rows, grid.cols) != (cfg.rows, cfg.cols):
        raise AssertionError("bbox_for_grid did not round-trip the grid dimensions")
    counts, rng = generate_counts(cfg)
    dlat = (grid.max_lat - grid.min_lat) / grid.rows
    dlon = (grid.max_lon - grid.min_lon) / grid.cols

    def jitter(cell_index):
        row, col = divmod(cell_index - 1, grid.cols)
        lat_hi = grid.max_lat - row * dlat
        lon_lo = grid.min_lon + col * dlon
        lat = lat_hi - rng.uniform(JITTER_MARGIN_DEG, dlat - JITTER_MARGIN_DEG)
        lon = lon_lo + rng.uniform(JITTER_MARGIN_DEG, dlon - JITTER_MARGIN_DEG)
        return lat, lon

    trip_count = 0
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("pickup_time,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,passenger_count\n")
        for abs_idx, matrix in enumerate(counts):
            day, offset = divmod(abs_idx, slots)
            slot_start = datetime.combine(cfg.start_date, datetime.min.time()) \
                + timedelta(days=day, minutes=offset * cfg.slot_minutes)
            for i in range(n):
                for j in range(n):
                    for _ in range(int(matrix[i, j])):
                        minute = int(rng.integers(0, cfg.slot_minutes))
                        when = slot_start + timedelta(minutes=minute)
                        plat, plon = jitter(i + 1)
                        dlat_pt, dlon_pt = jitter(j + 1)
                        fh.write(f"{when:%Y-%m-%d %H:%M:%S},"
                                 f"{plat:.6f},{plon:.6f},{dlat_pt:.6f},{dlon_pt:.6f},1\n")
                        trip_count += 1
    meta = {
        "bbox": list(bbox),
        "cell_km": cfg.cell_km,
        "rows": cfg.rows,
        "cols": cfg.cols,
        "days": cfg.days,
        "slot_minutes": cfg.slot_minutes,
        "start_date": cfg.start_date.isoformat(),
        "seed": cfg.seed,
        "trips": trip_count,
    }
    with open(str(out_path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return trip_count, bbox


def config_from_json(d):
    """SynthConfig from a JSON dict (the CLI's --config file)."""
    d = dict(d)
    if "start_date" in d:
        d["start_date"] = date.fromisoformat(d["start_date"])
    if "events" in d:
        d["events"] = tuple(EventShock(day=e["day"], slot_lo=e["slot_lo"],
                                       slot_hi=e["slot_hi"], cells=tuple(e["cells"]),
                                       multiplier=e["multiplier"])
                            for e in d["events"])
    for key in ("residential", "commercial"):
        if key in d:
            d[key] = tuple(d[key])
    return SynthConfig(**d)
