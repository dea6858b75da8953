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
from functools import cached_property

import numpy as np

from .coverage import (MAX_GRID, MAX_ITERS, SampledPattern, _patch_centers, _patch_index,
                       _response, _sample_count, _sample_times, sample_unmodulated)
from .design import as_fraction, design_unmodulated
from .errors import (DomainError, InvalidParams, OptimizationFailed, array_value, number_value,
                     record_errors, record_value, value_text)
from .scanner import ScannerConfig

FEASIBILITY_SLACK = 1e-9
MAX_BACKTRACKS = 10   # step halvings per iteration
# summed tone magnitude up to which project_absolute runs the simplex test on
# the magnitudes themselves, so that no solve below it changes a bit; the
# test's rounding grows with the sum (near 7.5e6 a projected sum missed 1 by
# more than FEASIBILITY_SLACK), so above it the magnitudes are shifted first
DIRECT_SIMPLEX_SUM = 2.0**16
REL_TOL = 1e-5        # relative best-loss gain that still counts as progress
SEARCH_BLOCK = 2**14  # elements (128 KB) of one (rows, columns, kept samples) search block
MAX_SEARCH = 2**22    # map side x n_samples: each (rows, n_samples) search array stays at 32 MB

# Reference regions of the tests, acceptance criteria and benchmark, as (xmin, xmax, ymin, ymax).
ROI_A = (-0.9, -0.3, -0.3, 0.3)
ROI_B = (0.2, 0.9, 0.2, 0.8)

# Default tone ladder: five tones at {6/7, 13/14, 1, 15/14, 8/7} times the
# axis resonance (the middle three for the 3-tone variant), snapped to the
# n / (L*m) grid with L = 2 frames per coefficient period.
_TONE_STEPS = {5: range(12, 17), 3: range(13, 16)}
_L = 2


def _rectangles(rois) -> list:
    """Each of rois through _rectangle; a lone number is a malformed rectangle."""
    return [_rectangle(rect) for rect in (rois if np.iterable(rois) else [rois])]


def _rectangle(rect) -> tuple:
    """rect as the finite edges (xmin, xmax, ymin, ymax) of a closed rectangle."""
    edges = tuple(number_value(edge, "rectangle edge")
                  for edge in (rect if np.iterable(rect) else [rect]))
    if len(edges) != 4 or edges[0] > edges[1] or edges[2] > edges[3]:
        raise DomainError(f"malformed rectangle {value_text(edges)}")
    return edges


@dataclass(frozen=True, eq=False)
class WeightMap:
    """Square per-patch importance map over the field of view.

    w[ix, iy] with ix increasing to the right (x from -1 to 1) and iy
    increasing upward (y from -1 to 1). The map is immutable: w is a
    read-only float64 copy of the weights it was built from, so the search
    plan built from it on first use stays valid.
    """

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(array_value(self.w, "weights"), order="C")   # a copy, whatever the layout
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise DomainError(f"weight map must be square and 2-D, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise DomainError("weights must be finite and non-negative")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    def __reduce__(self):
        # copies and pickles rebuild through __init__: read-only w, fresh plan
        return type(self), (self.w,)

    @property
    def size(self) -> int:
        return self.w.shape[0]

    @cached_property
    def _plan(self) -> _SearchPlan:
        return _SearchPlan(self.w)

    @classmethod
    def uniform(cls, size: int = 32) -> "WeightMap":
        size = number_value(size, "size", 1, MAX_GRID, int)
        return cls(np.full((size, size), 1.0))

    @classmethod
    def from_rectangles(cls, rois, size: int = 32) -> "WeightMap":
        """Binary map: weight 1 on patches whose center falls in any rectangle."""
        size = number_value(size, "size", 1, MAX_GRID, int)
        centers = _patch_centers(size)
        w = np.zeros((size, size))
        for xmin, xmax, ymin, ymax in _rectangles(rois):
            in_x = (centers >= xmin) & (centers <= xmax)
            in_y = (centers >= ymin) & (centers <= ymax)
            w[np.ix_(in_x, in_y)] = 1.0
        return cls(w)


class _SearchPlan:
    """What the nearest-sample search and the frozen-assignment loss take
    from a weight map alone, built once per map: the positive patches, the
    rows holding them, and the runs of consecutive rows with the same
    positive columns."""

    def __init__(self, w: np.ndarray) -> None:
        centers = _patch_centers(len(w))
        positive = w > 0
        rows = positive.any(axis=1).nonzero()[0]
        cols = positive.any(axis=0).nonzero()[0]
        box = positive[rows][:, cols]
        cuts = (box[1:] != box[:-1]).any(axis=1).nonzero()[0] + 1
        bounds = [0, *cuts.tolist(), len(rows)] if len(rows) else []
        # per run: its rows [a, b), its column centers, its patches [p, q) in
        # flat order, and the box (xlo, xhi, ylo, yhi) of its patch centers
        self.runs, p = [], 0
        for a, b in zip(bounds, bounds[1:]):
            run_cols = centers[cols[box[a]], None]
            q = p + (b - a) * len(run_cols)
            self.runs.append((a, b, run_cols, p, q, (centers[rows[a]], centers[rows[b - 1]],
                                                     run_cols[0, 0], run_cols[-1, 0])))
            p = q
        self.row_centers = centers[rows, None]
        self.r, self.c = box.nonzero()            # each positive patch, row-major, in rows x cols
        self.flat = rows[self.r] * len(w) + cols[self.c]   # the same patches in the raveled map
        self.cx, self.cy = centers[rows[self.r]], centers[cols[self.c]]
        self.w = w.take(self.flat)


_COEFFICIENTS = ("alpha", "gamma", "beta", "delta")


def _rms(cos_coef: np.ndarray, sin_coef: np.ndarray) -> float:
    """Root of one axis's summed squared coefficients; inf once that sum overflows."""
    total = float(np.add.reduce(cos_coef * cos_coef) + np.add.reduce(sin_coef * sin_coef))
    return math.sqrt(total)


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
        for name in _COEFFICIENTS:    # each a copy, as a finite 1-D float array
            arr = np.array(array_value(getattr(self, name), name, InvalidParams))
            if arr.ndim != 1 or not np.isfinite(arr).all():
                raise InvalidParams(f"{name} must be a finite 1-D array")
            setattr(self, name, arr)
        for axis, rms in (("x", self.rms_x), ("y", self.rms_y)):
            if rms > 1.0 + FEASIBILITY_SLACK:
                raise InvalidParams(f"{axis}-axis coefficient RMS {rms:.6f} exceeds 1")
        for name in ("nx", "ny"):
            tones = tuple(number_value(n, name, 1, sys.float_info.max, int, error=InvalidParams)
                          for n in getattr(self, name))
            if not tones or list(tones) != sorted(set(tones)):
                raise InvalidParams(f"{name} must be distinct positive integers in ascending order")
            setattr(self, name, tones)
        if len(self.alpha) != len(self.nx) or len(self.gamma) != len(self.nx):
            raise InvalidParams("alpha/gamma length must match nx")
        if len(self.beta) != len(self.ny) or len(self.delta) != len(self.ny):
            raise InvalidParams("beta/delta length must match ny")
        self.L = number_value(self.L, "L", 1, convert=int, error=InvalidParams)
        self.m = number_value(self.m, "m", 1, convert=int, error=InvalidParams)
        if self.L * self.m > sys.float_info.max:
            raise InvalidParams("L and m must be positive integers with a float-sized product")

    @property
    @np.errstate(over="ignore")
    def rms_x(self) -> float:
        return _rms(self.alpha, self.gamma)

    @property
    @np.errstate(over="ignore")
    def rms_y(self) -> float:
        return _rms(self.beta, self.delta)

    @property
    def fx_tones(self) -> np.ndarray:
        return np.array(self.nx, dtype=np.float64) / (self.L * self.m)

    @property
    def fy_tones(self) -> np.ndarray:
        return np.array(self.ny, dtype=np.float64) / (self.L * self.m)

    def with_coefficients(self, alpha=None, gamma=None, beta=None, delta=None) -> "ModulatedParams":
        new = zip(_COEFFICIENTS, (alpha, gamma, beta, delta))
        return replace(self, **{name: value for name, value in new if value is not None})

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
            return cls(**coefficients, nx=data["nx"], ny=data["ny"],
                       L=data["L"], m=data["m"],
                       config=ScannerConfig.from_dict(data["scanner"]))


def default_tone_indices(r, n_tones: int = 5, m: int = 7) -> tuple[int, ...]:
    """Tone indices for one axis with resonance ratio r, snapped to n/(2*m).

    Exact whenever c*r*2*m/14 is an integer for every ladder step c (always
    true for r = 1 and r = 2); otherwise each tone rounds to the nearest
    grid index.
    """
    try:
        steps = _TONE_STEPS[n_tones]
    except (KeyError, TypeError):       # TypeError: an unhashable n_tones
        raise InvalidParams(f"n_tones must be one of {sorted(_TONE_STEPS)}, "
                            f"got {value_text(n_tones)}") from None
    m = number_value(m, "m", 1, convert=int, error=InvalidParams)
    r = as_fraction(r)
    if r <= 0:
        raise InvalidParams("resonance ratio must be positive")
    indices = tuple(round(Fraction(c, 14) * r * _L * m) for c in steps)
    if indices[0] < 1 or any(a >= b for a, b in zip(indices, indices[1:])):
        raise InvalidParams(f"tone ladder collapsed for r = {float(r)}, m = {value_text(m)}, "
                            f"L = {_L}")
    return indices


def initial_params(r, m: int = 7, n_tones: int = 5, qx: float = ScannerConfig.qx,
                   qy: float = ScannerConfig.qy, y_single_tone: bool = False) -> ModulatedParams:
    """Single-tone starting point on the default tone ladder.

    All actuation (amplitude 0.95) sits on the center (near-resonance) tone
    of each axis as a cosine, matching the zero-phase convention of the
    unmodulated designs. Focusing ratios are judged against
    reference_pattern, not against this starting point.
    """
    r = as_fraction(r)
    nx = default_tone_indices(r, n_tones, m)
    ny = (_L * m,) if y_single_tone else default_tone_indices(1, n_tones, m)
    config = ScannerConfig(fx_res=float(r), qx=qx, qy=qy)
    alpha = np.zeros(len(nx))
    gamma = np.zeros(len(nx))
    beta = np.zeros(len(ny))
    delta = np.zeros(len(ny))
    alpha[len(nx) // 2] = 0.95
    beta[len(ny) // 2] = 0.95
    return ModulatedParams(alpha=alpha, gamma=gamma, beta=beta, delta=delta,
                           nx=nx, ny=ny, L=_L, m=m, config=config)


def _bases(params: ModulatedParams, n_samples: int):
    """Sample times over one frame [0, m), endpoint excluded, and the plant-weighted
    cosine/sine bases (bxc, bxs, byc, bys), each of shape (n_samples, tones)."""
    t = _sample_times(0, params.m, n_samples)
    hx = np.array([_response(params.config, "x", f) for f in params.fx_tones])
    hy = np.array([_response(params.config, "y", f) for f in params.fy_tones])
    ax = 2.0 * np.pi * np.outer(t, params.fx_tones)
    ay = 2.0 * np.pi * np.outer(t, params.fy_tones)
    return t, (np.cos(ax) * hx, np.sin(ax) * hx, np.cos(ay) * hy, np.sin(ay) * hy)


def _positions(bases, alpha, gamma, beta, delta) -> tuple[np.ndarray, np.ndarray]:
    """Sample positions x, y of the coefficients on _bases's matrices."""
    return bases[0] @ alpha + bases[1] @ gamma, bases[2] @ beta + bases[3] @ delta


@np.errstate(over="ignore", invalid="ignore")    # non-finite samples raise instead
def synthesize_modulated(params: ModulatedParams, n_samples: int = 500) -> SampledPattern:
    """n_samples uniform samples of the two-axis sum over t in [0, m),
    endpoint excluded.  One frame is the evaluation window everywhere; the
    full coefficient period spans L frames."""
    t, bases = _bases(params, n_samples)
    x, y = _positions(bases, params.alpha, params.gamma, params.beta, params.delta)
    return SampledPattern(t=t, x=x, y=y)


@dataclass(eq=False)
class Assignment:
    """objective's nearest-sample index and occupancy flag per patch, as
    size x size maps built from the search on the positive-weight patches:
    a zero-weight patch adds nothing to the loss or its gradient, so it is
    not searched and holds n_idx 0 and occupied False."""

    n_idx: np.ndarray     # (M, M) int, flat sample index per patch
    occupied: np.ndarray  # (M, M) bool, nearest sample closer than threshold


def _check_search(wmap: WeightMap, n_samples: int) -> None:
    """Refuse a search whose (map side, n_samples) arrays would pass MAX_SEARCH."""
    if wmap.size * n_samples > MAX_SEARCH:
        raise DomainError(f"search of map side {wmap.size} x {n_samples} samples exceeds "
                          f"{MAX_SEARCH}")


def _map_sum(wmap: WeightMap, terms: np.ndarray) -> float:
    """Sum of one term per positive patch (in plan.flat order), taken over
    the whole raveled map with zeros in place, as pairwise summation
    depends on where each term sits."""
    full = np.zeros(wmap.size * wmap.size)
    full[wmap._plan.flat] = terms
    return float(np.add.reduce(full))


def _assign(x: np.ndarray, y: np.ndarray, wmap: WeightMap, threshold: float,
            hint: np.ndarray | None = None) -> tuple[float, np.ndarray, np.ndarray]:
    """The loss, and for each positive patch in plan.flat order its nearest
    sample idx and its weight wbar, 0 where occupied (that nearest sample
    lies closer than threshold).

    hint, one sample per positive patch (optimize passes the previous
    iterate's idx), only narrows the search and never changes its result:
    each run of rows searches only the samples inside the box of its patch
    centers widened by _reach of the largest squared distance from one of
    its patches to its hint sample. A sample
    outside lies farther than that from every patch of the run, so it
    cannot be nearest to one (ties included); the kept samples are compared
    with the same sums in ascending index order.
    """
    plan = wmap._plan
    if hint is not None and not (np.isfinite(x).all() and np.isfinite(y).all()):
        hint = None       # a NaN sum wins the argmin wherever its sample lies
    if hint is not None:
        bound = (plan.cx - x.take(hint)) ** 2 + (plan.cy - y.take(hint)) ** 2
    # a run of rows is searched as (rows, columns, kept samples) blocks of at
    # most SEARCH_BLOCK elements (or one row)
    found = []                                    # nearest samples, in row-major patch order
    for a, b, run_cols, p, q, (xlo, xhi, ylo, yhi) in plan.runs:
        keep, xk, yk = None, x, y
        if hint is not None:
            reach = _reach(bound[p:q].max())
            keep = ((x >= xlo - reach) & (x <= xhi + reach)
                    & (y >= ylo - reach) & (y <= yhi + reach)).nonzero()[0]
            xk, yk = x.take(keep), y.take(keep)
        dx2 = (plan.row_centers[a:b] - xk) ** 2   # (rows, kept)
        dy2 = (run_cols - yk) ** 2                # (columns, kept)
        step = max(1, SEARCH_BLOCK // dy2.size)
        for s in range(0, b - a, step):
            got = (dx2[s:s + step, None, :] + dy2).argmin(axis=2)   # ties go to the smaller index
            found.append(got if keep is None else keep.take(got))
    idx = np.concatenate(found, axis=None) if found else np.zeros(0, dtype=np.intp)
    best = (plan.cx - x.take(idx)) ** 2 + (plan.cy - y.take(idx)) ** 2   # the sums it compared
    wbar = np.where(best < threshold * threshold, 0.0, plan.w)
    return _map_sum(wmap, wbar * best), idx, wbar


def _reach(r2: float) -> float:
    """A distance R such that a sample whose x (or y) lies beyond
    [lo - R, hi + R], lo and hi patch centers in [-1, 1], has a computed
    squared distance greater than r2 from every center in [lo, hi]; inf or
    NaN, so that no sample lies beyond, when r2 is.

    With u = 2**-53 the unit roundoff, the computed lo - R is within
    u*(1 + R) of its exact value, so every center is more than R*(1 - u) - u
    from such an x. Rounding the sqrt, the product, the sum, the difference
    and the square each lose a factor of at most 1 - u, far less than the
    relative margin 1 + 2**-20 gains. The absolute margin 2**-20 keeps the
    squared difference above 2**-43, where squares do not underflow. So
    that square exceeds r2 (0 included), and so does its sum with the other
    axis's square, which is not negative.
    """
    return math.sqrt(r2) * (1.0 + 2.0**-20) + 2.0**-20


@np.errstate(over="ignore", invalid="ignore")    # a non-finite loss raises instead
def objective(pattern: SampledPattern, wmap: WeightMap,
              threshold: float) -> tuple[float, Assignment]:
    """Weighted squared distance from every non-occupied patch center to its
    nearest sample, plus the assignment that produced it as size x size
    maps (searched on the positive-weight patches only; see Assignment).
    DomainError if the loss is not finite."""
    _check_search(wmap, len(pattern.x))
    loss, idx, wbar = _assign(pattern.x, pattern.y, wmap, number_value(threshold, "threshold", 0))
    if not math.isfinite(loss):
        raise DomainError(f"objective is not finite: {loss}")
    n_idx, occupied = np.zeros(wmap.w.shape, dtype=np.intp), np.zeros(wmap.w.shape, dtype=bool)
    np.put(n_idx, wmap._plan.flat, idx)
    np.put(occupied, wmap._plan.flat, wbar == 0.0)   # a positive weight is 0 only where occupied
    return loss, Assignment(n_idx=n_idx, occupied=occupied)


def _loss_fixed(x: np.ndarray, y: np.ndarray, wmap: WeightMap, idx: np.ndarray,
                wbar: np.ndarray) -> float:
    """Objective with assignment and occupancy frozen as _assign's idx and
    wbar (the surrogate the gradient differentiates)."""
    plan = wmap._plan
    return _map_sum(wmap, wbar * ((plan.cx - x.take(idx)) ** 2 + (plan.cy - y.take(idx)) ** 2))


@dataclass(eq=False)
class ModulatedGradient:
    """Objective gradient with respect to each coefficient array."""

    alpha: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    delta: np.ndarray


def _split(coef: np.ndarray, n_x: int) -> tuple[np.ndarray, ...]:
    """The alpha, gamma, beta and delta views of a stacked coefficient
    vector alpha | gamma | beta | delta whose x axis has n_x tones."""
    n_y = len(coef) // 2 - n_x
    return coef[:n_x], coef[n_x:2 * n_x], coef[2 * n_x:2 * n_x + n_y], coef[2 * n_x + n_y:]


def _gradient_fixed(x, y, wmap, idx, wbar, bxc, bxs, byc, bys) -> np.ndarray:
    """Gradient of _loss_fixed as one vector stacked alpha | gamma | beta |
    delta; a zero-weight patch would only add 0.0 to the per-sample sums,
    so the positive patches alone give the same sums."""
    n = len(x)
    plan = wmap._plan
    s1 = np.bincount(idx, weights=wbar, minlength=n)
    sx = np.bincount(idx, weights=wbar * plan.cx, minlength=n)
    sy = np.bincount(idx, weights=wbar * plan.cy, minlength=n)
    gx = 2.0 * (x * s1 - sx)         # dLoss / d(sample position)
    gy = 2.0 * (y * s1 - sy)
    return np.concatenate((bxc.T @ gx, bxs.T @ gx, byc.T @ gy, bys.T @ gy))


@np.errstate(over="ignore", invalid="ignore")    # a non-finite gradient raises instead
def gradient(params: ModulatedParams, wmap: WeightMap, n_samples: int,
             threshold: float) -> ModulatedGradient:
    """Exact objective gradient in coefficient space with the current
    patch-to-sample assignment held fixed; DomainError if it is not finite."""
    _check_search(wmap, _sample_count(n_samples))
    _, bases = _bases(params, n_samples)
    x, y = _positions(bases, params.alpha, params.gamma, params.beta, params.delta)
    _, idx, wbar = _assign(x, y, wmap, number_value(threshold, "threshold", 0))
    grad = _gradient_fixed(x, y, wmap, idx, wbar, *bases)
    if not np.isfinite(grad).all():
        raise DomainError("gradient is not finite")
    return ModulatedGradient(*_split(grad, len(params.alpha)))


def _coefficient_pair(cos_coef, sin_coef) -> tuple[np.ndarray, np.ndarray]:
    """One axis's cosine and sine coefficients as float64 arrays of one
    shape; DomainError otherwise."""
    cos_coef, sin_coef = array_value(cos_coef, "cos_coef"), array_value(sin_coef, "sin_coef")
    if cos_coef.shape != sin_coef.shape:
        raise DomainError(f"cosine and sine coefficients must share a shape, "
                          f"got {cos_coef.shape} and {sin_coef.shape}")
    return cos_coef, sin_coef


def _scaled_down(cos_coef, sin_coef) -> tuple[np.ndarray, np.ndarray, int]:
    """The finite pair times 2**-e, exactly, with e the smallest exponent
    that puts every entry below 1 in magnitude; and e."""
    exponent = math.frexp(max(np.abs(cos_coef).max(), np.abs(sin_coef).max()))[1]
    return np.ldexp(cos_coef, -exponent), np.ldexp(sin_coef, -exponent), exponent


@np.errstate(over="ignore")      # an overflowing RMS is scaled instead
def project_rms(cos_coef: np.ndarray, sin_coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radial projection of one axis onto the RMS unit ball. The two
    coefficient arrays must hold real numbers, finite ones, and share a
    shape (DomainError). A vector whose squares overflow is first scaled
    by a power of two, which is exact."""
    cos_coef, sin_coef = _coefficient_pair(cos_coef, sin_coef)
    norm = _rms(cos_coef, sin_coef)
    if norm <= 1.0:
        return cos_coef.copy(), sin_coef.copy()
    # a NaN or infinite coefficient gives this norm, but so does a finite vector whose squares
    # overflow; that one is first scaled by a power of two, which is exact and keeps its direction
    if not norm < math.inf:
        if not (np.isfinite(cos_coef).all() and np.isfinite(sin_coef).all()):
            raise DomainError(f"coefficients must be finite, got an RMS of {norm}")
        cos_coef, sin_coef, _ = _scaled_down(cos_coef, sin_coef)
        norm = _rms(cos_coef, sin_coef)
    return cos_coef / norm, sin_coef / norm


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of finite v, whose largest entry is below 2**53,
    onto the simplex {u >= 0, sum(u) = 1}. The largest entry passes the
    test, so some index always does."""
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(u) + 1) > (cumulative - 1.0))[0][-1]
    theta = (cumulative[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


@np.errstate(over="ignore")      # an overflowing magnitude is scaled instead
def project_absolute(cos_coef: np.ndarray, sin_coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projection onto summed-tone-magnitude <= 1: per-tone radial shrink by
    the simplex projection of the magnitude vector. The two coefficient
    arrays must hold real numbers, finite ones, and share a shape
    (DomainError). Above a summed magnitude of DIRECT_SIMPLEX_SUM the
    magnitudes are first shifted so that the largest is 0; where they
    overflow, the coefficients are first scaled by a power of two."""
    cos_coef, sin_coef = _coefficient_pair(cos_coef, sin_coef)
    mags = np.hypot(cos_coef, sin_coef)
    total = mags.sum()
    if total <= 1.0:
        return cos_coef.copy(), sin_coef.copy()
    if total <= DIRECT_SIMPLEX_SUM:
        target = _project_simplex(mags)
    else:
        if not (np.isfinite(cos_coef).all() and np.isfinite(sin_coef).all()):
            raise DomainError(f"coefficients must be finite, got a summed magnitude of {total}")
        exponent = 0
        if total == math.inf:          # a magnitude or their sum overflowed
            cos_coef, sin_coef, exponent = _scaled_down(cos_coef, sin_coef)
            mags = np.hypot(cos_coef, sin_coef)
        # shifting every magnitude leaves the simplex projection as it is, so
        # the largest goes to 0. One within 1 of it shifts exactly (Sterbenz)
        # or, below 2, within an ulp; one 1 or more below it projects to 0
        # either way, so its difference is clipped to -2 (in unscaled units)
        shifted = np.maximum(mags - mags.max(), -2.0 ** (1 - exponent))
        target = _project_simplex(np.ldexp(shifted, exponent))
    scale = np.divide(target, mags, out=np.zeros_like(mags), where=mags > 0)
    return cos_coef * scale, sin_coef * scale

_PROJECTIONS = {"rms": project_rms, "absolute": project_absolute}
# each constraint's norm of one axis, the quantity its projection bounds by 1
_NORMS = {"rms": _rms,
          "absolute": lambda cos_coef, sin_coef: float(np.hypot(cos_coef, sin_coef).sum())}


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
        self.step = number_value(self.step, "step", positive=True)
        self.n_samples = _sample_count(self.n_samples)
        if self.threshold is not None:
            self.threshold = number_value(self.threshold, "threshold", 0)
        self.max_iters = number_value(self.max_iters, "max_iters", 0, MAX_ITERS, int)
        self.patience = number_value(self.patience, "patience", 1, convert=int)
        if not isinstance(self.constraint, str) or self.constraint not in _PROJECTIONS:
            raise DomainError(f"constraint must be one of {sorted(_PROJECTIONS)}, "
                              f"got {value_text(self.constraint)}")


@dataclass(eq=False)
class OptimizeResult:
    """Best-seen iterate of optimize, with its loss and per-iterate traces."""

    params: ModulatedParams          # best-seen iterate
    loss: float
    loss_trace: np.ndarray           # true loss per iterate, index 0 = init
    norm_trace: np.ndarray           # per-iterate constraint norm (max of both axes)
    iterations: int
    converged: bool


@np.errstate(over="ignore", invalid="ignore")    # non-finite values are caught in the loop
def optimize(init: ModulatedParams, wmap: WeightMap,
             opts: OptimizeOptions | None = None) -> OptimizeResult:
    """Projected gradient descent on the weighted-coverage objective.

    Per iteration: gradient with the assignment frozen, step with halving
    backtracking judged against the frozen-assignment loss, projection onto
    the constraint set, then a fresh assignment. Returns the best-seen
    iterate; raises OptimizationFailed (with the trace so far) if the loss
    or its gradient is not finite, or if a stepped iterate's norm_trace
    entry exceeds 1 + FEASIBILITY_SLACK (iterate 0, init, is not checked).
    """
    opts = opts or OptimizeOptions()
    if not len(wmap._plan.flat):
        raise InvalidParams("weight map has no positive entries")
    _check_search(wmap, opts.n_samples)
    threshold = (1.0 / wmap.size) if opts.threshold is None else opts.threshold
    project, axis_norm = _PROJECTIONS[opts.constraint], _NORMS[opts.constraint]

    _, bases = _bases(init, opts.n_samples)
    # the descent runs on one stacked coefficient vector alpha | gamma | beta |
    # delta, the gradient's layout, and projects and synthesizes its four
    # views; only the returned iterate becomes a ModulatedParams
    n_x = len(init.alpha)
    coef = np.concatenate((init.alpha, init.gamma, init.beta, init.delta))
    a, g, b, d = _split(coef, n_x)
    x, y = _positions(bases, a, g, b, d)
    trace, norms = [], []
    best_loss = before = math.inf      # before: best loss up to patience iterates ago
    converged = False

    for iteration in range(opts.max_iters + 1):
        if iteration:                  # iterate 0 is init itself
            grad = _gradient_fixed(x, y, wmap, idx, wbar, *bases)
            if not np.isfinite(grad).all():
                raise OptimizationFailed("gradient became non-finite", trace=np.array(trace))
            step = opts.step
            for _ in range(MAX_BACKTRACKS + 1):
                cand = coef - step * grad
                a, g, b, d = _split(cand, n_x)
                try:
                    (a, g), (b, d) = project(a, g), project(b, d)
                except DomainError:    # refused only when not finite: the step left the
                    pass               # float range, so its loss is not finite either
                x, y = _positions(bases, a, g, b, d)
                if _loss_fixed(x, y, wmap, idx, wbar) <= trace[-1]:
                    break
                step *= 0.5
                # the last halved candidate is taken even if it still increases;
                # best-seen tracking protects the returned iterate
            coef = np.concatenate((a, g, b, d))
        norm = max(axis_norm(a, g), axis_norm(b, d))
        if iteration and not norm <= 1.0 + FEASIBILITY_SLACK:
            raise OptimizationFailed(f"iterate {iteration} left the constraint set, norm {norm}",
                                     trace=np.array(trace))
        loss, idx, wbar = _assign(x, y, wmap, threshold, idx if iteration else None)
        if not math.isfinite(loss):
            raise OptimizationFailed("objective became non-finite", trace=np.array(trace + [loss]))
        trace.append(loss)
        norms.append(norm)
        if loss < best_loss:
            best_loss, best_coef = loss, coef
        if iteration >= opts.patience:
            before = min(before, trace[iteration - opts.patience])
            if before - best_loss <= REL_TOL * max(before, 1e-12):
                converged = True
                break

    return OptimizeResult(params=init.with_coefficients(*_split(best_coef, n_x)), loss=best_loss,
                          loss_trace=np.array(trace), norm_trace=np.array(norms),
                          iterations=iteration, converged=converged)


def roi_density(pattern: SampledPattern, rois) -> int:
    """Number of samples inside the union of closed rectangles
    (xmin, xmax, ymin, ymax)."""
    inside = np.zeros(len(pattern.x), dtype=bool)
    for xmin, xmax, ymin, ymax in _rectangles(rois):
        inside |= ((pattern.x >= xmin) & (pattern.x <= xmax)
                   & (pattern.y >= ymin) & (pattern.y <= ymax))
    return int(np.count_nonzero(inside))


def positive_region_density(pattern: SampledPattern, wmap: WeightMap) -> int:
    """Number of samples landing in patches with positive weight (a sample
    outside the field of view counts in its nearest edge patch)."""
    ix, iy = _patch_index(pattern.x, wmap.size), _patch_index(pattern.y, wmap.size)
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
