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
from .errors import DegeneratePattern, DomainError, LissscanError, number_value
from .scanner import ScannerConfig, transfer_amplitude

MAX_SWEEP_CELLS = 10**5   # bounds a CLI sweep's (ratio, m) grid before it is built
MAX_GRID = 2048           # fill_factor's n_grid x n_grid bound array stays at 32 MB
MAX_SAMPLES = 2**21       # a pattern's stacked (n_samples, 2) KD-tree input stays at 32 MB
MAX_ITERS = 10**6         # optimize's loss and norm trace lists stay near 32 MB each
POOL_CHUNK = 8            # distinct geometries per process-pool task in sweep_designs


@dataclass(eq=False)
class SampledPattern:
    """Uniformly timed trajectory samples plus frame bookkeeping."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    frame_len: float
    frames: int = 1

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
        if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise DomainError("timestamps must be strictly increasing and uniform")
        self.frame_len = number_value(self.frame_len, "frame_len", positive=True)
        self.frames = number_value(self.frames, "frames", 1, convert=int)


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
    return SampledPattern(t=t, x=x, y=y, frame_len=m, frames=1)


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
    patch centers. The search is exact but queries few centers: the worst
    distance at every 4th center per axis (the probes) is a lower bound on
    r_max; by the triangle inequality a center's distance is at most its
    nearest probe's distance plus its offset from that probe, and only the
    centers whose bound reaches the lower bound are queried as well. r_max
    is bit-identical to the maximum over all centers.
    """
    from scipy.spatial import cKDTree   # deferred: most commands never need it
    n_grid = _grid_count(n_grid)
    sx = float(np.max(np.abs(pattern.x)))
    sy = float(np.max(np.abs(pattern.y)))
    if not (np.isfinite(sx) and np.isfinite(sy)):
        raise DomainError("pattern samples must be finite")
    if sx == 0.0 or sy == 0.0:
        raise DegeneratePattern("pattern has zero extent on at least one axis")
    tree = cKDTree(np.column_stack([pattern.x / sx, pattern.y / sy]))
    centers = _patch_centers(n_grid)
    probes = np.arange(min(2, n_grid - 1), n_grid, 4)      # each mid-block
    px, py = np.meshgrid(centers[probes], centers[probes], indexing="ij")
    probe_dist = tree.query(np.column_stack([px.ravel(), py.ravel()]))[0].reshape(px.shape)
    rank = np.clip((np.arange(n_grid) - probes[0] + 2) // 4, 0, len(probes) - 1)
    offset = np.abs(centers - centers[probes[rank]])
    bound = probe_dist[np.ix_(rank, rank)] + np.hypot(offset[:, None], offset[None, :])
    # 1e-9 dwarfs the few-ulp rounding of these O(1) distances; the probe
    # attaining the lower bound has bound == lower bound, so it is kept
    ix, iy = np.nonzero(bound >= probe_dist.max() - 1e-9)
    r_max = float(tree.query(np.column_stack([centers[ix], centers[iy]]))[0].max())
    return CoverageReport(fill_factor=2.0 - r_max, r_max=r_max)


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
        import scipy.spatial  # noqa: F401  (imported once here, not in each forked worker)
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
    over the first frame at the default sample count and grid."""
    out = []
    for delta in deltas:
        delta = number_value(delta, "delta")
        shifted = UnmodulatedDesign(fx=design.fx, phix=design.phix + delta,
                                    m=design.m, fy=design.fy, phiy=design.phiy)
        out.append((delta, fill_factor(sample_unmodulated(shifted, config)).fill_factor))
    return out
