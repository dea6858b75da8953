"""Pattern sampling and spatial coverage metrics.

Coverage is judged inside the axis-normalized [-1, 1] x [-1, 1] field of
view: samples are rescaled per axis by their own absolute maximum, a
uniform grid of patch centers is laid over the square, and the largest
patch-center-to-sample distance is the radius of the largest circle the
pattern leaves empty. fill-factor = 2 - that radius, so 2 is perfect
coverage. Scanning range is the product of the two axes' amplitude
responses, i.e. the fraction of the full field of view actually reached.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .design import (N_GRID_DEFAULT, N_SAMPLES_DEFAULT, UnmodulatedDesign, as_fraction,
                     baseline_repeating_design, design_unmodulated)
from .errors import DegeneratePattern, DomainError, LissscanError, number_value, value_text
from .scanner import ScannerConfig, transfer_amplitude

MAX_SWEEP_CELLS = 10**5   # bounds a CLI sweep's (ratio, m) grid before it is built
MAX_GRID = 2048           # each of fill_factor's n_grid x n_grid bound arrays stays at 32 MB
MAX_SAMPLES = 2**21       # a pattern's x and y stay at 16 MB each; fill_factor's search
                          # adds one n_samples mask per group
MAX_ITERS = 10**6         # optimize's loss and norm trace lists stay near 32 MB each
POOL_CHUNK = 8            # distinct geometries per process-pool task in sweep_designs
_BOUND_ROWS = 6           # rows searched on either side of a patch center by _cell_bound
_REFINE_SHARE = 32        # fill_factor tightens its bounds when over 1/32 of the centers remain
_BLOCK = 2**15            # candidates x samples above which _nearest_squared splits a group,
                          # and samples above which it makes a coarse pass first
_TILE = 2**13             # elements per distance tile in _nearest_squared: 64 KiB of float64,
                          # under glibc's 128 KiB mmap threshold; tiles of _BLOCK elements
                          # cost 73-93 minor page faults per fill_factor call at grid 128
_COARSE = 64              # stride of _nearest_squared's first pass over more than _BLOCK samples


@dataclass(eq=False)
class SampledPattern:
    """Uniformly timed trajectory samples."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @np.errstate(over="ignore", invalid="ignore")   # a step past the float range is refused
    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=np.float64)
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if not (self.t.ndim == self.x.ndim == self.y.ndim == 1):
            raise DomainError("t, x, y must be one-dimensional arrays")
        if not (len(self.t) == len(self.x) == len(self.y)) or len(self.t) < 2:
            raise DomainError("t, x, y must share a length of at least 2")
        if not all(np.isfinite(a).all() for a in (self.t, self.x, self.y)):
            raise DomainError("t, x, y must be finite")
        steps = np.diff(self.t)
        step = steps[0]
        # np.allclose(steps, step, rtol=1e-9, atol=1e-12), for a finite step only
        if not 0 < step < math.inf or not (np.abs(steps - step) <= 1e-12 + 1e-9 * step).all():
            raise DomainError("timestamps must be strictly increasing and uniform, "
                              "with a finite step")


@dataclass(frozen=True)
class CoverageReport:
    """r_max, the largest empty circle's radius, and fill_factor = 2 - r_max."""

    fill_factor: float
    r_max: float


def _response(config: ScannerConfig, axis: str, f) -> float:
    """Amplitude response at a design frequency f, in units of the y resonance."""
    return transfer_amplitude(config, axis, float(f) * config.fy_res)


@np.errstate(over="ignore", invalid="ignore")    # non-finite samples raise instead
def sample_unmodulated(design: UnmodulatedDesign, config: ScannerConfig,
                       frame_index: int = 0, n_samples: int = N_SAMPLES_DEFAULT,
                       amp_x: float | None = None, amp_y: float | None = None) -> SampledPattern:
    """Sample one frame of a single-tone pattern.

    n_samples uniform timestamps cover [frame_index*m, (frame_index+1)*m)
    with the endpoint excluded; frame_index is an integer of either sign.
    Amplitudes default to the plant response at each tone; pass amp_x /
    amp_y to override (e.g. 0 to silence an axis).
    """
    ax = _response(config, "x", design.fx) if amp_x is None else number_value(amp_x, "amp_x", 0)
    ay = _response(config, "y", design.fy) if amp_y is None else number_value(amp_y, "amp_y", 0)
    m = design.m
    frame_index = number_value(frame_index, "frame_index", convert=int)
    if not abs(frame_index * m) <= sys.float_info.max:
        raise DomainError(f"frame_index {frame_index} starts the frame outside float range")
    t = _sample_times(frame_index * m, m, n_samples)
    x = ax * np.cos(2.0 * np.pi * float(design.fx) * t + design.phix)
    y = ay * np.cos(2.0 * np.pi * float(design.fy) * t + design.phiy)
    return SampledPattern(t=t, x=x, y=y)


def _sample_count(n_samples) -> int:
    """n_samples as an integer in [2, MAX_SAMPLES]; DomainError otherwise."""
    return number_value(n_samples, "n_samples", 2, MAX_SAMPLES, int)


def _grid_count(n_grid) -> int:
    """n_grid as an integer in [2, MAX_GRID]; DomainError otherwise."""
    return number_value(n_grid, "n_grid", 2, MAX_GRID, int)


def _sample_times(start, span, n_samples) -> np.ndarray:
    """n_samples uniform times over [start, start + span), endpoint excluded."""
    n_samples = _sample_count(n_samples)
    return start + np.arange(n_samples) * (span / n_samples)


@lru_cache(maxsize=64)
def _patch_centers(n: int) -> np.ndarray:
    """Centers of n equal patches across [-1, 1]; cached per n, so read-only."""
    centers = -1.0 + (2.0 * np.arange(n) + 1.0) / n
    centers.flags.writeable = False
    return centers


def fill_factor(pattern: SampledPattern, n_grid: int = N_GRID_DEFAULT) -> CoverageReport:
    """Largest-empty-circle coverage of the normalized pattern.

    Each axis is rescaled by its own max |value| (origin preserved); r_max
    is the largest nearest-sample distance over an n_grid x n_grid grid of
    patch centers. The search is exact but measures few centers. Each center
    gets an upper bound on its distance from the grid cells that hold a
    sample (_cell_bound); the center with the largest bound is measured
    against every sample, and its distance is a lower bound on r_max. Only
    the centers whose bound reaches that lower bound are measured as well,
    each against the samples within its bound (_nearest_squared). When more
    than 1/_REFINE_SHARE of the centers do, the bounds are first tightened
    down each column (_column_bound). r_max is bit-identical to the maximum
    over all centers.
    """
    n_grid = _grid_count(n_grid)
    sx = float(np.max(np.abs(pattern.x)))
    sy = float(np.max(np.abs(pattern.y)))
    if not (np.isfinite(sx) and np.isfinite(sy)):
        raise DomainError("pattern samples must be finite")
    if sx == 0.0 or sy == 0.0:
        raise DegeneratePattern("pattern has zero extent on at least one axis")
    x, y = pattern.x / sx, pattern.y / sy
    centers = _patch_centers(n_grid)

    def deepest(bound) -> float:
        """Nearest-sample distance of the center with the largest bound."""
        row, column = np.unravel_index(np.argmax(bound), bound.shape)
        return math.sqrt(np.min((centers[column] - x) ** 2 + (centers[row] - y) ** 2))

    def reached(bound, lower):
        """Centers whose squared bound, in units of 1/n_grid, reaches lower.
        1e-9 dwarfs the few-ulp rounding of the cells and of these O(1)
        distances, so a center at distance r_max is never dropped."""
        reach = max(lower - 1e-9, 0.0) * n_grid
        return bound >= reach * reach

    bound = _cell_bound(x, y, n_grid)
    lower = deepest(bound)
    near = reached(bound, lower)
    if np.count_nonzero(near) * _REFINE_SHARE > n_grid * n_grid:
        bound = _column_bound(bound)
        lower = max(lower, deepest(bound))
        near = reached(bound, lower)
    flat = np.flatnonzero(near)                         # row-major, as np.nonzero
    iy, ix = np.divmod(flat, n_grid)
    reach = np.sqrt(bound.take(flat)) / n_grid + 1e-9   # at least each center's distance
    r_max = math.sqrt(_nearest_squared(x, y, centers[ix], centers[iy], reach).max())
    return CoverageReport(fill_factor=2.0 - r_max, r_max=r_max)


def _nearest_squared(x: np.ndarray, y: np.ndarray, cx: np.ndarray, cy: np.ndarray,
                     reach: np.ndarray) -> np.ndarray:
    """Squared distance from each candidate (cx, cy) to its nearest sample
    (x, y), given reach, an upper bound on each candidate's distance.

    Over more than _BLOCK samples, a first pass over every _COARSE-th one
    tightens each reach. A group of candidates keeps the samples inside its
    bounding box grown by its largest reach, which hold every member's
    nearest sample. A group whose candidates times kept samples exceed
    _BLOCK splits in two at the median of its box's longer side, and both
    halves search what it kept if that is at most half of what it searched,
    else what it searched: the arrays a waiting group holds shrink by half
    from one to the next, so they stay within twice the samples however deep
    the split. A final group sums (cx - x)**2 + (cy - y)**2 in tiles of at
    most _TILE elements and keeps each row's minimum, the arithmetic of a
    KD-tree's 2-D query, so the result is bit-identical to one. A box that
    holds no sample, which only the coarse pass can meet, gives inf.

    A tile stays at 64 KiB, below glibc's 128 KiB mmap and trim threshold,
    so its memory is reused from one tile and one call to the next. Tiles
    of _BLOCK elements (256 KiB) were paged in afresh: 73-93 minor faults
    per fill_factor call over the acceptance grid at 1,000 samples and grid
    128, against 6-7 with 64 KiB tiles. _BLOCK still sets the splitting and
    the coarse pass: at 2**13 it splits groups more finely, and 200,000
    samples at grid 512 took 18-30% longer.
    """
    if len(x) > _BLOCK:
        coarse = _nearest_squared(x[::_COARSE], y[::_COARSE], cx, cy, reach)
        reach = np.minimum(reach, np.sqrt(coarse) + 1e-9)
    out = np.empty(len(cx))
    groups = [(np.arange(len(cx)), x, y)]
    while groups:
        index, sx, sy = groups.pop()
        gx, gy, r = cx[index], cy[index], reach[index].max()
        x0, x1, y0, y1 = gx.min(), gx.max(), gy.min(), gy.max()
        inside = (sx >= x0 - r) & (sx <= x1 + r) & (sy >= y0 - r) & (sy <= y1 + r)
        kx, ky = sx[inside], sy[inside]
        if len(index) * len(kx) > _BLOCK and len(index) > 1:
            half = len(index) // 2
            along = np.argpartition(gx if x1 - x0 >= y1 - y0 else gy, half)
            kept = (kx, ky) if 2 * len(kx) <= len(sx) else (sx, sy)
            groups += [(index[along[:half]], *kept), (index[along[half:]], *kept)]
            continue
        rows = max(1, _TILE // max(len(kx), 1))
        columns = _TILE // rows
        for row in range(0, len(index), rows):
            px, py = gx[row:row + rows, None], gy[row:row + rows, None]
            best = np.full(len(px), np.inf)
            for column in range(0, len(kx), columns):
                part = slice(column, column + columns)
                tile = (px - kx[part]) ** 2 + (py - ky[part]) ** 2
                np.minimum(best, tile.min(axis=1), out=best)
            out[index[row:row + rows]] = best
    return out


def _cell_bound(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """(n d)^2 for an upper bound d on each patch center's distance to its
    nearest sample, as int32 indexed [y cell, x cell].

    A sample lies in cell min(floor((v + 1) n / 2), n - 1) per axis, so a
    center that sees an occupied cell di columns and dj rows away is within
    sqrt((2|di| + 1)^2 + (2|dj| + 1)^2) / n of a sample. A running max and
    min along each row find the nearest occupied column; a min over the
    _BOUND_ROWS rows on either side of a center then gives its bound. A
    center with no occupied cell in those rows gets at least (4n + 1)^2,
    more than the field's squared diagonal, 8 n^2.
    """
    cx = np.minimum(((x + 1.0) * (n / 2)).astype(np.intp), n - 1)
    cy = np.minimum(((y + 1.0) * (n / 2)).astype(np.intp), n - 1)
    columns = np.arange(n, dtype=np.int32)
    left = np.full((n, n), -2 * n, dtype=np.int32)
    left[cy, cx] = cx
    np.maximum.accumulate(left, axis=1, out=left)      # nearest occupied column at or left
    right = np.full((n, n), 3 * n, dtype=np.int32)
    right[cy, cx] = cx
    np.minimum.accumulate(right[:, ::-1], axis=1, out=right[:, ::-1])    # ... at or right
    np.subtract(columns, left, out=left)
    np.subtract(right, columns, out=right)
    gap = np.minimum(left, right, out=left)             # at least 2n in an empty row
    gap *= 2
    gap += 1
    np.square(gap, out=gap)
    bound = gap + 1
    scratch = right
    for dj in range(1, _BOUND_ROWS + 1):
        step = (2 * dj + 1) ** 2
        np.add(gap[dj:], step, out=scratch[:-dj])        # the row dj above
        np.minimum(bound[:-dj], scratch[:-dj], out=bound[:-dj])
        np.add(gap[:-dj], step, out=scratch[dj:])        # the row dj below
        np.minimum(bound[dj:], scratch[dj:], out=bound[dj:])
    return bound


def _column_bound(squared: np.ndarray) -> np.ndarray:
    """_cell_bound's squared bound tightened down each column: a center is at
    most one center spacing, 2/n, farther from its nearest sample than its
    neighbor is, so d[j] <= d[j'] + 2|j - j'| in units of 1/n. Float64, and
    still squared. The running minima go row by row, a whole row per call,
    because numpy's accumulate down a column is several times slower."""
    bound = np.sqrt(squared)
    offset = 2.0 * np.arange(len(bound))[:, None]
    bound -= offset
    for j in range(1, len(bound)):                       # from the rows below
        np.minimum(bound[j], bound[j - 1], out=bound[j])
    bound += 2.0 * offset
    for j in range(len(bound) - 2, -1, -1):              # ... and above
        np.minimum(bound[j], bound[j + 1], out=bound[j])
    bound -= offset
    return np.square(bound, out=bound)


def scanning_range(design: UnmodulatedDesign, config: ScannerConfig) -> float:
    """Product of the amplitude responses at the two drive tones."""
    return _response(config, "x", design.fx) * _response(config, "y", design.fy)


@dataclass(frozen=True)
class SweepRow:
    """One (r, m, rule) cell of sweep_designs; an errored cell has no numbers."""

    r: Fraction
    m: int
    rule: str                  # "proposed" | "baseline"
    fill_factor: float | None
    scanning_range: float | None
    status: str                # "ok" | "error:<Kind>"


def _score_geometry(args: tuple) -> float | str:
    """Fill factor of one pattern geometry at unit amplitude, or its error status."""
    design, config, n_samples, n_grid = args
    try:
        pattern = sample_unmodulated(design, config, 0, n_samples, amp_x=1.0, amp_y=1.0)
        return fill_factor(pattern, n_grid).fill_factor
    except LissscanError as exc:
        return f"error:{type(exc).__name__}"


def sweep_designs(r_grid: Iterable, m_set: Iterable[int],
                  config: ScannerConfig | None = None,
                  n_samples: int = N_SAMPLES_DEFAULT, n_grid: int = N_GRID_DEFAULT,
                  workers: int | None = None) -> list[SweepRow]:
    """Evaluate both selection rules over a grid of (r, m) cells.

    Returns one row per (r, m, rule) in deterministic order; a repeated
    ratio or frame time counts once, where it first appears. Cells where a
    rule errors come back flagged in the status column instead of being
    dropped. Each distinct geometry (fx, fy, phix, phiy, m) is scored once,
    at unit amplitude, which fill factor does not depend on. workers > 1
    scores the geometries in a process pool of at most that many processes,
    fewer when the CPUs this process may run on or the pool's tasks
    (POOL_CHUNK geometries each) are fewer, and serially when that leaves one;
    the rows do not depend on it.
    """
    try:
        r_grid, m_set = iter(r_grid), iter(m_set)
    except TypeError:
        raise DomainError(f"sweep grids must be iterable, got r_grid {value_text(r_grid)} "
                          f"and m_set {value_text(m_set)}") from None
    r_grid = list(dict.fromkeys(as_fraction(r) for r in r_grid))
    m_set = list(dict.fromkeys(number_value(m, "m", convert=int) for m in m_set))
    workers = 1 if workers is None else number_value(workers, "workers", 1, convert=int)
    if not r_grid or not m_set:
        raise DomainError("sweep grids must be non-empty")
    qx, qy = (config.qx, config.qy) if config is not None else (20.0, 20.0)
    rules = (("proposed", design_unmodulated), ("baseline", baseline_repeating_design))
    cells = []    # (r, m, rule, geometry or None, scanning range or error status)
    jobs = {}     # geometry -> _score_geometry arguments, in first-seen order
    for r, m, (rule, make) in product(r_grid, m_set, rules):
        try:
            design = make(r, m)
            cell_config = ScannerConfig(fx_res=float(r), fy_res=1.0, qx=qx, qy=qy)
            reach = scanning_range(design, cell_config)
        except LissscanError as exc:
            cells.append((r, m, rule, None, f"error:{type(exc).__name__}"))
            continue
        geometry = (design.fx, design.fy, design.phix, design.phiy, design.m)
        jobs.setdefault(geometry, (design, cell_config, n_samples, n_grid))
        cells.append((r, m, rule, geometry, reach))
    workers = min(workers, _usable_cpus(), math.ceil(len(jobs) / POOL_CHUNK))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            fills = dict(zip(jobs, pool.map(_score_geometry, jobs.values(), chunksize=POOL_CHUNK)))
    else:
        fills = {geometry: _score_geometry(args) for geometry, args in jobs.items()}
    rows = []
    for r, m, rule, geometry, outcome in cells:
        fill = outcome if geometry is None else fills[geometry]
        if isinstance(fill, str):
            rows.append(SweepRow(r, m, rule, None, None, fill))
        else:
            rows.append(SweepRow(r, m, rule, fill, outcome, "ok"))
    return rows


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep_workers_from_env() -> int | None:
    """Worker cap from the LISSSCAN_THREADS environment variable, if set."""
    raw = os.environ.get("LISSSCAN_THREADS")
    return None if raw is None else number_value(raw, "LISSSCAN_THREADS", 1, convert=int)


def phase_tolerance_sweep(design: UnmodulatedDesign, config: ScannerConfig,
                          deltas: Sequence[float]) -> list[tuple[float, float]]:
    """Fill-factor of the design with its x phase offset by each delta (rad),
    over the first frame at the default sample count and grid.

    The frame is sampled once per design, at the first offset that passes
    its checks; each offset then recomputes only x, with sample_unmodulated's
    arithmetic, so every fill factor is bit-identical to sampling the
    shifted design afresh.
    """
    out, frame = [], None
    for delta in deltas:
        delta = number_value(delta, "delta")
        phix = number_value(design.phix + delta, "phix")    # as UnmodulatedDesign checks it
        if frame is None:
            ax = _response(config, "x", design.fx)
            frame = sample_unmodulated(design, config, amp_x=ax)
            phase = 2.0 * np.pi * float(design.fx) * frame.t
        pattern = SampledPattern(t=frame.t, x=ax * np.cos(phase + phix), y=frame.y)
        out.append((delta, fill_factor(pattern).fill_factor))
    return out
