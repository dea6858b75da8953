"""Multi-tone pattern parameterization and weighted-coverage optimization.

Each axis moves as a short Fourier sum on the frequency grid n / (L*m);
the plant attenuates every tone by its own amplitude response, so samples
are a linear function of the cosine/sine coefficient vectors. Actuation is
bounded per axis either in RMS (root of the summed squared coefficients)
or, optionally, in summed tone magnitude.

The objective scores an importance-weighted patch grid over the fixed
[-1, 1] x [-1, 1] field of view: every patch pays its weight times the
squared distance to its nearest sample, and patches that already hold a
sample within a small threshold are zeroed regardless of weight. Gradients
are taken with the patch-to-sample assignment frozen; minimizing is plain
projected gradient descent with step backtracking.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .coverage import SampledPattern, _patch_centers, _response, sample_unmodulated
from .design import as_fraction, design_unmodulated
from .errors import (DomainError, InvalidParams, OptimizationFailed, finite_non_negative,
                     positive_finite, record_errors, record_value)
from .scanner import ScannerConfig

FEASIBILITY_SLACK = 1e-9
MAX_BACKTRACKS = 10   # step halvings per iteration
REL_TOL = 1e-5        # relative best-loss gain that still counts as progress

# Reference regions used by tests and CLI reporting, as (xmin, xmax, ymin, ymax).
ROI_A = (-0.9, -0.3, -0.3, 0.3)
ROI_B = (0.2, 0.9, 0.2, 0.8)

# Default tone ladder: five tones at {6/7, 13/14, 1, 15/14, 8/7} times the
# axis resonance (the middle three for the 3-tone variant), snapped to the
# n / (L*m) grid with L = 2 frames per coefficient period.
_TONE_STEPS = {5: range(12, 17), 3: range(13, 16)}
_L = 2


@dataclass(eq=False)
class WeightMap:
    """Square per-patch importance map over the field of view.

    w[ix, iy] with ix increasing to the right (x from -1 to 1) and iy
    increasing upward (y from -1 to 1).
    """

    w: np.ndarray

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 2 or self.w.shape[0] != self.w.shape[1] or self.w.shape[0] < 1:
            raise DomainError(f"weight map must be square and 2-D, got shape {self.w.shape}")
        if not np.all(np.isfinite(self.w)) or np.any(self.w < 0):
            raise DomainError("weights must be finite and non-negative")

    @property
    def size(self) -> int:
        return self.w.shape[0]

    @classmethod
    def uniform(cls, size: int = 32, value: float = 1.0) -> "WeightMap":
        return cls(np.full((size, size), float(value)))

    @classmethod
    def from_rectangles(cls, rois, size: int = 32) -> "WeightMap":
        """Binary map: weight 1 on patches whose center falls in any rectangle."""
        centers = _patch_centers(size)
        w = np.zeros((size, size))
        for xmin, xmax, ymin, ymax in rois:
            in_x = (centers >= xmin) & (centers <= xmax)
            in_y = (centers >= ymin) & (centers <= ymax)
            w[np.ix_(in_x, in_y)] = 1.0
        return cls(w)


_COEFFICIENTS = ("alpha", "gamma", "beta", "delta")


def _rms(cos_coef: np.ndarray, sin_coef: np.ndarray) -> float:
    """Root of one axis's summed squared coefficients."""
    return float(np.sqrt(np.sum(cos_coef ** 2) + np.sum(sin_coef ** 2)))


def _checked_coefficients(alpha, gamma, beta, delta) -> tuple[np.ndarray, ...]:
    """The four coefficient arrays as finite 1-D float arrays whose per-axis
    RMS is within 1 (plus FEASIBILITY_SLACK); InvalidParams otherwise."""
    arrays = []
    for name, value in zip(_COEFFICIENTS, (alpha, gamma, beta, delta)):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise InvalidParams(f"{name} must be a finite 1-D array")
        arrays.append(arr)
    for axis, rms in (("x", _rms(*arrays[:2])), ("y", _rms(*arrays[2:]))):
        if rms > 1.0 + FEASIBILITY_SLACK:
            raise InvalidParams(f"{axis}-axis coefficient RMS {rms:.6f} exceeds 1")
    return tuple(arrays)


@dataclass(eq=False)
class ModulatedParams:
    """Per-axis tone indices and cosine/sine actuation coefficients.

    Tone n actuates at frequency n / (L*m); alpha/gamma drive x, beta/delta
    drive y. Per-axis RMS of the coefficients must stay within 1.
    """

    alpha: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    delta: np.ndarray
    nx: tuple[int, ...]
    ny: tuple[int, ...]
    L: int
    m: int
    config: ScannerConfig

    def __post_init__(self) -> None:
        with np.errstate(over="ignore"):    # an overflowing RMS raises InvalidParams
            self.alpha, self.gamma, self.beta, self.delta = _checked_coefficients(
                self.alpha, self.gamma, self.beta, self.delta)
        self.nx = tuple(int(n) for n in self.nx)
        self.ny = tuple(int(n) for n in self.ny)
        for name, tones in (("nx", self.nx), ("ny", self.ny)):
            if not tones or any(n < 1 for n in tones) or list(tones) != sorted(set(tones)):
                raise InvalidParams(f"{name} must be distinct positive integers in ascending order")
        if len(self.alpha) != len(self.nx) or len(self.gamma) != len(self.nx):
            raise InvalidParams("alpha/gamma length must match nx")
        if len(self.beta) != len(self.ny) or len(self.delta) != len(self.ny):
            raise InvalidParams("beta/delta length must match ny")
        if self.L < 1 or self.m < 1 or self.L * self.m > sys.float_info.max:
            raise InvalidParams("L and m must be positive integers with a float-sized product")

    @property
    def rms_x(self) -> float:
        return _rms(self.alpha, self.gamma)

    @property
    def rms_y(self) -> float:
        return _rms(self.beta, self.delta)

    @property
    def fx_tones(self) -> np.ndarray:
        return np.array(self.nx, dtype=np.float64) / (self.L * self.m)

    @property
    def fy_tones(self) -> np.ndarray:
        return np.array(self.ny, dtype=np.float64) / (self.L * self.m)

    def with_coefficients(self, alpha=None, gamma=None, beta=None, delta=None) -> "ModulatedParams":
        pick = lambda new, old: old if new is None else np.array(new, dtype=float)
        return replace(self, alpha=pick(alpha, self.alpha), gamma=pick(gamma, self.gamma),
                       beta=pick(beta, self.beta), delta=pick(delta, self.delta))

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha.tolist(), "gamma": self.gamma.tolist(),
            "beta": self.beta.tolist(), "delta": self.delta.tolist(),
            "nx": list(self.nx), "ny": list(self.ny),
            "L": self.L, "m": self.m,
            "scanner": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModulatedParams":
        with record_errors("params record", InvalidParams):
            coefficients = {name: [record_value(v, name) for v in data[name]]
                            for name in _COEFFICIENTS}
            return cls(**coefficients,
                       nx=tuple(record_value(n, "nx", int) for n in data["nx"]),
                       ny=tuple(record_value(n, "ny", int) for n in data["ny"]),
                       L=record_value(data["L"], "L", int), m=record_value(data["m"], "m", int),
                       config=ScannerConfig.from_dict(data["scanner"]))


def polar_coefficients(amplitudes, phases_rad) -> tuple[np.ndarray, np.ndarray]:
    """Cosine/sine coefficients of sum_i A_i cos(2 pi f_i t + phi_i)."""
    amps = np.asarray(amplitudes, dtype=np.float64)
    phases = np.asarray(phases_rad, dtype=np.float64)
    return amps * np.cos(phases), -amps * np.sin(phases)


def default_tone_indices(r, n_tones: int = 5, m: int = 7) -> tuple[int, ...]:
    """Tone indices for one axis with resonance ratio r, snapped to n/(2*m).

    Exact whenever c*r*2*m/14 is an integer for every ladder step c (always
    true for r = 1 and r = 2); otherwise each tone rounds to the nearest
    grid index.
    """
    if n_tones not in _TONE_STEPS:
        raise InvalidParams(f"n_tones must be one of {sorted(_TONE_STEPS)}, got {n_tones}")
    r = as_fraction(r)
    if r <= 0:
        raise InvalidParams("resonance ratio must be positive")
    indices = []
    for c in _TONE_STEPS[n_tones]:
        n = round(Fraction(c, 14) * r * _L * m)
        if n < 1 or (indices and n <= indices[-1]):
            raise InvalidParams(f"tone ladder collapsed for r = {float(r)}, m = {m}, L = {_L}")
        indices.append(n)
    return tuple(indices)


def initial_params(r, m: int = 7, n_tones: int = 5, qx: float = 20.0, qy: float = 20.0,
                   y_single_tone: bool = False) -> ModulatedParams:
    """Single-tone starting point on the default tone ladder.

    All actuation (amplitude 0.95) sits on the center (near-resonance) tone
    of each axis as a cosine, matching the zero-phase convention of the
    unmodulated designs; this pattern doubles as the unmodulated reference
    for focusing ratios.
    """
    r = as_fraction(r)
    nx = default_tone_indices(r, n_tones, m)
    ny = (_L * m,) if y_single_tone else default_tone_indices(1, n_tones, m)
    config = ScannerConfig(fx_res=float(r), fy_res=1.0, qx=qx, qy=qy)
    alpha = np.zeros(len(nx))
    gamma = np.zeros(len(nx))
    beta = np.zeros(len(ny))
    delta = np.zeros(len(ny))
    alpha[len(nx) // 2] = 0.95
    beta[len(ny) // 2] = 0.95
    return ModulatedParams(alpha=alpha, gamma=gamma, beta=beta, delta=delta,
                           nx=nx, ny=ny, L=_L, m=m, config=config)


def _bases(params: ModulatedParams, t: np.ndarray):
    """Plant-weighted cosine/sine basis matrices, shape (len(t), tones)."""
    hx = np.array([_response(params.config, "x", f) for f in params.fx_tones])
    hy = np.array([_response(params.config, "y", f) for f in params.fy_tones])
    ax = 2.0 * np.pi * np.outer(t, params.fx_tones)
    ay = 2.0 * np.pi * np.outer(t, params.fy_tones)
    return np.cos(ax) * hx, np.sin(ax) * hx, np.cos(ay) * hy, np.sin(ay) * hy


def synthesize_modulated(params: ModulatedParams, n_samples: int = 500,
                         frames: int = 1) -> SampledPattern:
    """n_samples uniform samples of the two-axis sum over t in [0, frames*m),
    endpoint excluded.  One frame is the evaluation window everywhere; the
    full coefficient period spans L frames."""
    if n_samples < 2:
        raise DomainError(f"need at least 2 samples, got {n_samples}")
    if frames < 1:
        raise DomainError(f"need at least 1 frame, got {frames}")
    t = np.arange(n_samples) * (frames * params.m / n_samples)
    bxc, bxs, byc, bys = _bases(params, t)
    x = bxc @ params.alpha + bxs @ params.gamma
    y = byc @ params.beta + bys @ params.delta
    return SampledPattern(t=t, x=x, y=y, frame_len=float(params.m), frames=frames)


@dataclass(eq=False)
class Assignment:
    """Nearest-sample index and occupancy flag per patch, defined on the
    patches with positive weight only: a zero-weight patch adds nothing to
    the loss or its gradient, so it is not searched and holds n_idx 0 and
    occupied False."""

    n_idx: np.ndarray     # (M, M) int, flat sample index per patch
    occupied: np.ndarray  # (M, M) bool, nearest sample closer than threshold


def _assign(x: np.ndarray, y: np.ndarray, wmap: WeightMap,
            threshold: float) -> tuple[float, Assignment]:
    size = wmap.size
    centers = _patch_centers(size)
    dx2 = (centers[:, None] - x[None, :]) ** 2   # (M, N)
    dy2 = (centers[:, None] - y[None, :]) ** 2
    positive = wmap.w > 0
    n_idx = np.zeros((size, size), dtype=np.intp)
    best = np.zeros((size, size))
    for ix in np.flatnonzero(positive.any(axis=1)):   # row loop keeps memory flat
        iy = np.flatnonzero(positive[ix])
        d2 = dx2[ix][None, :] + dy2[iy]
        idx = np.argmin(d2, axis=1)                   # ties go to the smaller index
        n_idx[ix, iy] = idx
        best[ix, iy] = d2[np.arange(len(iy)), idx]
    occupied = positive & (best < threshold * threshold)
    wbar = np.where(occupied, 0.0, wmap.w)
    return float(np.sum(wbar * best)), Assignment(n_idx=n_idx, occupied=occupied)


def objective(pattern: SampledPattern, wmap: WeightMap,
              threshold: float) -> tuple[float, Assignment]:
    """Weighted squared distance from every non-occupied patch center to its
    nearest sample, plus the assignment that produced it (searched on the
    positive-weight patches only; see Assignment)."""
    return _assign(pattern.x, pattern.y, wmap, finite_non_negative(threshold, "threshold"))


def _loss_fixed(x: np.ndarray, y: np.ndarray, wmap: WeightMap, asg: Assignment) -> float:
    """Objective with assignment and occupancy frozen (the surrogate the
    gradient differentiates)."""
    size = wmap.size
    centers = _patch_centers(size)
    d2 = (centers[:, None] - x[asg.n_idx]) ** 2 + (centers[None, :] - y[asg.n_idx]) ** 2
    wbar = np.where(asg.occupied, 0.0, wmap.w)
    return float(np.sum(wbar * d2))


@dataclass(eq=False)
class ModulatedGradient:
    """Objective gradient with respect to each coefficient array."""

    alpha: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    delta: np.ndarray


def _gradient_fixed(x, y, wmap, asg, bxc, bxs, byc, bys) -> ModulatedGradient:
    size = wmap.size
    n = len(x)
    centers = _patch_centers(size)
    wbar = np.where(asg.occupied, 0.0, wmap.w).ravel()
    idx = asg.n_idx.ravel()
    cxp = np.repeat(centers, size)   # patch x centers, ix-major flattening
    cyp = np.tile(centers, size)
    s1 = np.bincount(idx, weights=wbar, minlength=n)
    sx = np.bincount(idx, weights=wbar * cxp, minlength=n)
    sy = np.bincount(idx, weights=wbar * cyp, minlength=n)
    gx = 2.0 * (x * s1 - sx)         # dLoss / d(sample position)
    gy = 2.0 * (y * s1 - sy)
    return ModulatedGradient(alpha=bxc.T @ gx, gamma=bxs.T @ gx,
                             beta=byc.T @ gy, delta=bys.T @ gy)


def gradient(params: ModulatedParams, wmap: WeightMap, n_samples: int,
             threshold: float) -> ModulatedGradient:
    """Exact objective gradient in coefficient space with the current
    patch-to-sample assignment held fixed."""
    pattern = synthesize_modulated(params, n_samples)
    _, asg = objective(pattern, wmap, threshold)
    bxc, bxs, byc, bys = _bases(params, pattern.t)
    return _gradient_fixed(pattern.x, pattern.y, wmap, asg, bxc, bxs, byc, bys)


def project_rms(cos_coef: np.ndarray, sin_coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radial projection of one axis onto the RMS unit ball."""
    norm = _rms(cos_coef, sin_coef)
    if norm <= 1.0:
        return cos_coef.copy(), sin_coef.copy()
    return cos_coef / norm, sin_coef / norm


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of non-negative v with sum(v) > 1 onto the
    simplex {u >= 0, sum(u) = 1}."""
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(u) + 1) > (cumulative - 1.0))[0][-1]
    theta = (cumulative[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project_absolute(cos_coef: np.ndarray, sin_coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projection onto summed-tone-magnitude <= 1: per-tone radial shrink by
    the simplex projection of the magnitude vector."""
    mags = np.hypot(cos_coef, sin_coef)
    if mags.sum() <= 1.0:
        return cos_coef.copy(), sin_coef.copy()
    target = _project_simplex(mags)
    scale = np.divide(target, mags, out=np.zeros_like(mags), where=mags > 0)
    return cos_coef * scale, sin_coef * scale

_PROJECTIONS = {"rms": project_rms, "absolute": project_absolute}


@dataclass
class OptimizeOptions:
    """Settings of optimize, checked on construction (DomainError)."""

    max_iters: int = 200
    step: float = 0.05
    threshold: float | None = None   # None: half a patch side, 1/M
    n_samples: int = 500
    constraint: str = "rms"          # "rms" | "absolute"
    patience: int = 10

    def __post_init__(self) -> None:
        positive_finite(self.step, "step")
        if self.n_samples < 2:
            raise DomainError(f"n_samples must be at least 2, got {self.n_samples}")
        if self.threshold is not None:
            finite_non_negative(self.threshold, "threshold")
        if self.max_iters < 0 or self.patience < 1:
            raise DomainError(f"need max_iters >= 0 and patience >= 1, got {self.max_iters} "
                              f"and {self.patience}")
        if self.constraint not in _PROJECTIONS:
            raise DomainError(f"constraint must be one of {sorted(_PROJECTIONS)}, "
                              f"got {self.constraint!r}")


@dataclass(eq=False)
class OptimizeResult:
    """Best-seen iterate of optimize, with its loss and per-iterate traces."""

    params: ModulatedParams          # best-seen iterate
    loss: float
    loss_trace: np.ndarray           # true loss per iterate, index 0 = init
    norm_trace: np.ndarray           # per-iterate constraint norm (max of both axes)
    iterations: int
    converged: bool


def _constraint_norm(alpha, gamma, beta, delta, constraint: str) -> float:
    if constraint == "rms":
        return max(_rms(alpha, gamma), _rms(beta, delta))
    return max(float(np.hypot(alpha, gamma).sum()), float(np.hypot(beta, delta).sum()))


@np.errstate(over="ignore")    # an overflowing loss or gradient raises OptimizationFailed
def optimize(init: ModulatedParams, wmap: WeightMap,
             opts: OptimizeOptions | None = None) -> OptimizeResult:
    """Projected gradient descent on the weighted-coverage objective.

    Per iteration: gradient with the assignment frozen, step with halving
    backtracking judged against the frozen-assignment loss, projection onto
    the constraint set, then a fresh assignment. Returns the best-seen
    iterate; raises OptimizationFailed (with the trace so far) if the loss
    or its gradient is not finite.
    """
    opts = opts or OptimizeOptions()
    if not np.any(wmap.w > 0):
        raise InvalidParams("weight map has no positive entries")
    threshold = (1.0 / wmap.size) if opts.threshold is None else float(opts.threshold)
    project = _PROJECTIONS[opts.constraint]

    t = np.arange(opts.n_samples) * (init.m / opts.n_samples)
    bxc, bxs, byc, bys = _bases(init, t)

    def synth(alpha, gamma, beta, delta) -> tuple[np.ndarray, np.ndarray]:
        return bxc @ alpha + bxs @ gamma, byc @ beta + bys @ delta

    # the descent runs on the four coefficient arrays (alpha, gamma, beta,
    # delta); only the returned iterate becomes a ModulatedParams
    coef = (init.alpha, init.gamma, init.beta, init.delta)
    x, y = synth(*coef)
    loss, asg = _assign(x, y, wmap, threshold)
    if not math.isfinite(loss):
        raise OptimizationFailed("objective is non-finite at the start", trace=np.array([loss]))
    trace = [loss]
    norms = [_constraint_norm(*coef, opts.constraint)]
    best_coef, best_loss = coef, loss
    best_hist = [loss]
    converged = False
    iterations = 0

    for iterations in range(1, opts.max_iters + 1):
        grad = _gradient_fixed(x, y, wmap, asg, bxc, bxs, byc, bys)
        if not all(np.all(np.isfinite(g)) for g in (grad.alpha, grad.gamma, grad.beta, grad.delta)):
            raise OptimizationFailed("gradient became non-finite", trace=np.array(trace))
        step = opts.step
        cand = cx = cy = None
        for _ in range(MAX_BACKTRACKS + 1):
            a, g = project(coef[0] - step * grad.alpha, coef[1] - step * grad.gamma)
            b, d = project(coef[2] - step * grad.beta, coef[3] - step * grad.delta)
            cand = _checked_coefficients(a, g, b, d)
            cx, cy = synth(*cand)
            if _loss_fixed(cx, cy, wmap, asg) <= trace[-1]:
                break
            step *= 0.5
            # the last halved candidate is taken even if it still increases;
            # best-seen tracking protects the returned iterate
        coef, x, y = cand, cx, cy
        loss, asg = _assign(x, y, wmap, threshold)
        if not math.isfinite(loss):
            raise OptimizationFailed("objective became non-finite", trace=np.array(trace + [loss]))
        trace.append(loss)
        norms.append(_constraint_norm(*coef, opts.constraint))
        if loss < best_loss:
            best_loss, best_coef = loss, coef
        best_hist.append(best_loss)
        if iterations >= opts.patience:
            before = best_hist[-1 - opts.patience]
            if before - best_hist[-1] <= REL_TOL * max(before, 1e-12):
                converged = True
                break

    return OptimizeResult(params=init.with_coefficients(*best_coef), loss=best_loss,
                          loss_trace=np.array(trace), norm_trace=np.array(norms),
                          iterations=iterations, converged=converged)


def roi_density(pattern: SampledPattern, rois) -> int:
    """Number of samples inside the union of closed rectangles
    (xmin, xmax, ymin, ymax)."""
    inside = np.zeros(len(pattern.x), dtype=bool)
    for xmin, xmax, ymin, ymax in rois:
        if xmin > xmax or ymin > ymax:
            raise DomainError(f"malformed rectangle {(xmin, xmax, ymin, ymax)}")
        inside |= ((pattern.x >= xmin) & (pattern.x <= xmax)
                   & (pattern.y >= ymin) & (pattern.y <= ymax))
    return int(np.count_nonzero(inside))


def positive_region_density(pattern: SampledPattern, wmap: WeightMap) -> int:
    """Number of samples landing in patches with positive weight (a sample
    outside the field of view counts in its nearest edge patch)."""
    size = wmap.size
    ix = np.clip(((pattern.x + 1.0) * 0.5 * size).astype(int), 0, size - 1)
    iy = np.clip(((pattern.y + 1.0) * 0.5 * size).astype(int), 0, size - 1)
    return int(np.count_nonzero(wmap.w[ix, iy] > 0))


def reference_pattern(r, m: int = 7, config: ScannerConfig | None = None,
                      n_samples: int = 500) -> SampledPattern:
    """Unmodulated baseline for focusing comparisons: the single-tone design
    for the same (r, m) at its physical plant amplitudes, sampled over one
    frame with the same point budget."""
    r = as_fraction(r)
    design = design_unmodulated(r, m)
    if config is None:
        config = ScannerConfig.normalized(float(r))
    return sample_unmodulated(design, config, n_samples=n_samples)
