"""Fill-factor / scanning-range metrics and the (r, m) design sweep."""

import concurrent.futures
import dataclasses
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lissscan import coverage
from lissscan import (ScannerConfig, SampledPattern, UnmodulatedDesign,
                      baseline_repeating_design, design_unmodulated, fill_factor,
                      initial_params, phase_tolerance_sweep, sample_unmodulated, scanning_range,
                      sweep_designs, sweep_workers_from_env, synthesize_modulated)
from lissscan.coverage import MAX_GRID, MAX_SAMPLES
from lissscan.errors import DegeneratePattern, DomainError, number_value

F = Fraction
CFG = ScannerConfig.normalized(1.5)

# the three reference patterns at r = 1.5, m = 7
P0 = UnmodulatedDesign(fx=F(3, 2), phix=math.pi / 4, m=7)   # on-resonance, repeats every 2
P1 = baseline_repeating_design(F(3, 2), 7)                  # 11/7 at pi/14
P2 = design_unmodulated(F(3, 2), 7)                         # 41/28 at 0


def test_sampling_layout():
    pattern = sample_unmodulated(P2, CFG, 0, 1000)
    assert len(pattern.t) == 1000
    assert pattern.t[0] == 0.0
    assert pattern.t[-1] == pytest.approx(7.0 - 7.0 / 1000.0)
    shifted = sample_unmodulated(P2, CFG, 3, 1000)
    assert shifted.t[0] == pytest.approx(21.0)


def test_sampling_takes_a_frame_index_of_either_sign():
    before = sample_unmodulated(P2, CFG, -2, 100)
    assert before.t[0] == -14.0
    assert np.array_equal(before.x, sample_unmodulated(P2, CFG, -2.0, 100).x)
    for index in (1.5, True, math.nan):     # 1.5 started the frame half a frame late
        with pytest.raises(DomainError, match="^frame_index must be an integer"):
            sample_unmodulated(P2, CFG, index, 100)


def test_sample_values_at_t0():
    pattern = sample_unmodulated(P0, CFG, 0, 100)
    # x resonance drive has unit response; phase pi/4 sets the start point
    assert pattern.x[0] == pytest.approx(math.cos(math.pi / 4), rel=1e-15)
    assert pattern.y[0] == pytest.approx(1.0, rel=1e-15)


def test_amplitude_overrides():
    pattern = sample_unmodulated(P2, CFG, 0, 100, amp_x=0.5, amp_y=0.25)
    assert np.max(np.abs(pattern.x)) <= 0.5 + 1e-12
    assert np.max(np.abs(pattern.y)) <= 0.25 + 1e-12
    silent = sample_unmodulated(P2, CFG, 0, 100, amp_x=0.0)
    assert np.all(silent.x == 0.0)


def test_sampled_pattern_holds_only_its_samples():
    # frames and frame_len went with the pattern file format, their only reader
    assert [field.name for field in dataclasses.fields(SampledPattern)] == ["t", "x", "y"]
    with pytest.raises(TypeError, match="frame_len"):
        SampledPattern(t=[0, 1], x=[0, 1], y=[0, 1], frame_len=1.0)
    for pattern in (sample_unmodulated(P2, CFG, 0, 50),
                    synthesize_modulated(initial_params(2), 50)):
        assert sorted(vars(pattern)) == ["t", "x", "y"]


def test_sampled_pattern_validation():
    t = np.arange(10) * 0.1
    with pytest.raises(DomainError):
        SampledPattern(t=t, x=np.zeros(9), y=np.zeros(10))
    with pytest.raises(DomainError):
        SampledPattern(t=np.array([0.0]), x=np.array([0.0]), y=np.array([0.0]))
    with pytest.raises(DomainError):
        SampledPattern(t=np.array([0.0, 0.2, 0.5]), x=np.zeros(3), y=np.zeros(3))
    with pytest.raises(DomainError, match="one-dimensional"):
        SampledPattern(t=t[None, :], x=np.zeros(10), y=np.zeros(10))
    with pytest.raises(DomainError, match="^t, x, y must be finite$"):
        SampledPattern(t=[0, 1], x=[0, math.nan], y=[0, 1])
    with pytest.raises(DomainError, match="^t, x, y must be finite$"):   # the x phase overflows
        sample_unmodulated(UnmodulatedDesign(fx=1e308, phix=0.0, m=7), CFG, 0, 50)
    with pytest.raises(DomainError):
        sample_unmodulated(P2, CFG, 0, 1)


@pytest.mark.filterwarnings("error")      # the step overflows with no numpy warning
@pytest.mark.parametrize("t", [[-1e308, 1e308], [0.0, 1e308, -1e308], [0.0, 1e308, 1.5e308]])
def test_a_step_past_the_float_range_is_refused(t):
    # [-1e308, 1e308] was accepted with an infinite step and an overflow warning
    with pytest.raises(DomainError, match="^timestamps must be strictly increasing and uniform"):
        SampledPattern(t=t, x=np.zeros(len(t)), y=np.ones(len(t)))


@settings(max_examples=200, deadline=None)
@given(start=st.floats(-1e6, 1e6), step=st.floats(1e-13, 1e6),
       jitter=st.lists(st.sampled_from([0.0, 1e-12, -2e-12, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9]),
                       min_size=1, max_size=5))
def test_the_uniform_step_check_keeps_the_tolerances_of_np_allclose(start, step, jitter):
    t = start + np.cumsum([0.0, step] + [step * (1.0 + j) + j for j in jitter])
    steps = np.diff(t)
    expected = steps[0] > 0 and np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12)
    try:
        SampledPattern(t=t, x=np.zeros(len(t)), y=np.ones(len(t)))
    except DomainError:
        assert not expected
    else:
        assert expected


def test_fill_factor_pinned_reference_patterns():
    f0 = fill_factor(sample_unmodulated(P0, CFG))
    f1 = fill_factor(sample_unmodulated(P1, CFG))
    f2 = fill_factor(sample_unmodulated(P2, CFG))
    assert f0.fill_factor == pytest.approx(1.6215761232637407, rel=1e-12)
    assert f1.fill_factor == pytest.approx(1.885100772983906, rel=1e-12)
    assert f2.fill_factor == pytest.approx(1.8765781196864306, rel=1e-12)
    for rep in (f0, f1, f2):
        assert rep.fill_factor == pytest.approx(2.0 - rep.r_max, rel=1e-15)
        assert 0.0 < rep.fill_factor < 2.0


def test_fill_factor_matches_direct_min_distance_scan():
    pattern = sample_unmodulated(P2, CFG, 0, 100)
    report = fill_factor(pattern, n_grid=32)
    px = pattern.x / np.max(np.abs(pattern.x))
    py = pattern.y / np.max(np.abs(pattern.y))
    centers = -1.0 + (2.0 * np.arange(32) + 1.0) / 32
    worst = max(np.min((px - cx) ** 2 + (py - cy) ** 2)
                for cx in centers for cy in centers)
    assert report.r_max == pytest.approx(math.sqrt(worst), rel=1e-12)


def test_fill_factor_is_scale_invariant():
    pattern = sample_unmodulated(P2, CFG, 0, 500)
    scaled = SampledPattern(t=pattern.t, x=3.0 * pattern.x, y=0.2 * pattern.y)
    a = fill_factor(pattern)
    b = fill_factor(scaled)
    assert b.r_max == pytest.approx(a.r_max, rel=1e-12)


def test_fill_factor_rejects_flat_patterns_and_tiny_grids():
    with pytest.raises(DegeneratePattern):
        fill_factor(sample_unmodulated(P2, CFG, 0, 100, amp_y=0.0))
    with pytest.raises(DomainError):
        fill_factor(sample_unmodulated(P2, CFG, 0, 100), n_grid=1)


def test_sample_and_grid_bounds_raise_before_anything_is_allocated(monkeypatch):
    pattern = sample_unmodulated(P2, CFG, 0, 100)
    params = initial_params(2, n_tones=3)
    fill_factor(pattern, 8)                          # scores at a valid grid

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the bound was checked")
    for name in ("arange", "meshgrid", "outer", "empty", "zeros", "full"):
        monkeypatch.setattr(np, name, no_allocation)
    with pytest.raises(DomainError, match=f"n_grid must be between 2 and {MAX_GRID}, got"):
        fill_factor(pattern, MAX_GRID + 1)
    with pytest.raises(DomainError, match=f"n_samples must be between 2 and {MAX_SAMPLES}, got"):
        sample_unmodulated(P2, CFG, 0, MAX_SAMPLES + 1)
    with pytest.raises(DomainError, match="n_samples must be between"):
        synthesize_modulated(params, MAX_SAMPLES + 1)
    assert coverage._grid_count(MAX_GRID) == MAX_GRID       # the bounds themselves are allowed
    assert coverage._sample_count(MAX_SAMPLES) == MAX_SAMPLES


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fill_factor_rejects_non_finite_samples(axis, bad):
    pattern = sample_unmodulated(P2, CFG, 0, 100)
    getattr(pattern, axis)[17] = bad
    with pytest.raises(DomainError, match="finite"):
        fill_factor(pattern)


def _every_center_distance(pattern, n_grid):
    """Reference: the nearest-sample distance of every patch center, [y, x]."""
    from scipy.spatial import cKDTree
    tree = cKDTree(np.column_stack([pattern.x / np.max(np.abs(pattern.x)),
                                    pattern.y / np.max(np.abs(pattern.y))]))
    centers = -1.0 + (2.0 * np.arange(n_grid) + 1.0) / n_grid
    cy, cx = np.meshgrid(centers, centers, indexing="ij")
    return tree.query(np.column_stack([cx.ravel(), cy.ravel()]))[0].reshape(n_grid, n_grid)


def _r_max_over_every_center(pattern, n_grid):
    return float(_every_center_distance(pattern, n_grid).max())


@st.composite
def _point_sets(draw):
    """A pattern and the grid it is scored on."""
    n_grid = draw(st.one_of(st.sampled_from([2, 3, 5, 127, 129]), st.integers(2, 160)))
    kind = draw(st.sampled_from(["uniform", "clustered", "lattice", "lissajous", "cell edges"]))
    n = draw(st.integers(2, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        x, y = rng.uniform(-1.0, 1.0, (2, n))
    elif kind == "clustered":
        centers = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 6)), 2))
        picked = centers[rng.integers(0, len(centers), n)]
        x, y = (picked + rng.uniform(0.001, 0.3) * rng.standard_normal((n, 2))).T
    elif kind == "lattice":                          # many samples repeat a point
        ticks = np.linspace(-1.0, 1.0, int(rng.integers(2, 12)))
        x, y = ticks[rng.integers(0, len(ticks), (2, n))]
    elif kind == "cell edges":     # on multiples of 2 / n_grid, +-1.0 too, or one ulp either side
        edges = -1.0 + 2.0 * rng.integers(0, n_grid + 1, (2, n)) / n_grid
        x, y = np.clip(np.nextafter(edges, edges + rng.integers(-1, 2, (2, n))), -1.0, 1.0)
    else:
        t = np.arange(n) * (float(rng.integers(1, 10)) / n)
        x = np.cos(2.0 * np.pi * rng.uniform(0.5, 3.0) * t + rng.uniform(0.0, 2.0 * np.pi))
        y = np.cos(2.0 * np.pi * t)
    assume(np.max(np.abs(x)) > 0.0 and np.max(np.abs(y)) > 0.0)
    return SampledPattern(t=np.arange(n, dtype=float), x=x, y=y), n_grid


@settings(max_examples=200, deadline=None)
@given(case=_point_sets())
def test_fill_factor_r_max_is_exactly_the_every_center_maximum(case):
    pattern, n_grid = case
    distance = _every_center_distance(pattern, n_grid)
    assert fill_factor(pattern, n_grid).r_max == distance.max()
    # both bounds hold at every center, not only where they decide r_max
    squared = coverage._cell_bound(pattern.x / np.max(np.abs(pattern.x)),
                                   pattern.y / np.max(np.abs(pattern.y)), n_grid)
    for bound in (squared, coverage._column_bound(squared)):
        assert np.all(np.sqrt(bound) / n_grid >= distance - 1e-12)


@settings(max_examples=200, deadline=None)
@given(case=_point_sets(), seed=st.integers(0, 2**32 - 1), tied=st.sampled_from("xyb"),
       everything=st.booleans())
def test_nearest_squared_is_the_brute_force_minimum_bit_for_bit(case, seed, tied, everything):
    pattern, _ = case
    x = pattern.x / np.max(np.abs(pattern.x))
    y = pattern.y / np.max(np.abs(pattern.y))
    rng = np.random.default_rng(seed)
    cx, cy = rng.uniform(-1.2, 1.2, (2, int(rng.integers(1, 80))))
    share = rng.random(len(cx)) < rng.random()      # ties the median cannot split
    if tied in "xb":
        cx[share] = cx[0]
    if tied in "yb":
        cy[share] = cy[0]
    brute = np.min((cx[:, None] - x) ** 2 + (cy[:, None] - y) ** 2, axis=1)
    reach = np.sqrt(brute) + rng.uniform(1e-9, 1.0, len(cx)) ** 3
    if everything:
        reach[-1] = 3.0                              # a box holding every sample
    # a small block, so groups split and over 64 samples the coarse pass runs,
    # where a short reach can leave a box without a coarse sample; a smaller
    # tile, so a final group's rows and columns split into several tiles
    with mock.patch.object(coverage, "_BLOCK", 64), mock.patch.object(coverage, "_TILE", 16):
        assert np.array_equal(coverage._nearest_squared(x, y, cx, cy, reach), brute)


def _lowest_in_cell(k, n_grid):
    """The smallest float that _cell_bound puts in cell k: the cell's
    included corner coordinate. It steps one float at a time, so its edge
    must not be 0.0 (2 k != n_grid), where floats are dense."""
    def cell(v):
        return min(int((v + 1.0) * (n_grid / 2)), n_grid - 1)
    v = -1.0 + 2.0 * k / n_grid
    while cell(v) < k:
        v = float(np.nextafter(v, 2.0))
    while cell(float(np.nextafter(v, -2.0))) >= k:
        v = float(np.nextafter(v, -2.0))
    return v


@pytest.mark.parametrize("n_grid, i, j", [(11, 4, 7), (16, 10, 10), (32, 10, 18)])
def test_fill_factor_measures_a_nearest_sample_just_past_its_cell_bound(n_grid, i, j):
    # The deepest center c = (i, j) sees no sample in its own cell or the 8
    # around it but one on the included corner of the cell to its left, so
    # its bound, sqrt(10) / n_grid, is exactly that sample's distance. A
    # sample on c's row lies one float beyond c's x less the rounded bound,
    # yet its computed squared distance is the smaller one. fill_factor's
    # reach keeps it only through its 1e-9 slack: without it r_max grew by
    # an ulp on each of these grids.
    centers = coverage._patch_centers(n_grid)
    row = float(np.nextafter(centers[i] - np.sqrt(10.0) / n_grid, -2.0))
    points = [(centers[a], centers[b]) for a in range(n_grid) for b in range(n_grid)
              if max(abs(a - i), abs(b - j)) > 1]
    left, below = _lowest_in_cell(i - 1, n_grid), _lowest_in_cell(j, n_grid)
    points += [(left, below), (left, _lowest_in_cell(j - 1, n_grid)), (left, centers[j + 1]),
               (row, centers[j]), (1.0, 1.0)]
    x, y = np.array(points).T
    corner = (centers[i] - left) ** 2 + (centers[j] - below) ** 2
    assert (centers[i] - row) ** 2 < corner
    pattern = SampledPattern(t=np.arange(len(x), dtype=float), x=x, y=y)
    assert fill_factor(pattern, n_grid).r_max == _r_max_over_every_center(pattern, n_grid)


@pytest.mark.parametrize("center, coarse, row", [
    # the coarse sample's squared distance underflows to 0, so its reach is 0
    ((0.0, 0.0), (1e-170, 0.0), None),
    # a sample on the center's row lies one float beyond the center's x less
    # the coarse sample's computed distance, yet its squared distance is smaller
    ((0.357, -0.374), (0.5796834898761534, -0.5087753738311538), "just past"),
], ids=["underflow", "row"])
def test_nearest_squared_keeps_what_the_coarse_reach_allows(center, coarse, row):
    # the coarse pass tightens each reach to a measured distance plus 1e-9;
    # without the slack the box dropped the nearest sample (inf or a larger sum)
    cx, cy = np.array([center[0]]), np.array([center[1]])
    x, y = [coarse[0], 0.9], [coarse[1], 0.9]
    if row:
        x[1] = float(np.nextafter(cx[0] - math.hypot(cx[0] - coarse[0], cy[0] - coarse[1]), -2.0))
        y[1] = cy[0]
    x, y = np.array(x), np.array(y)
    brute = np.min((cx[:, None] - x) ** 2 + (cy[:, None] - y) ** 2, axis=1)
    with mock.patch.object(coverage, "_BLOCK", 1):     # two samples take the coarse pass
        assert np.array_equal(coverage._nearest_squared(x, y, cx, cy, np.array([3.0])), brute)


@pytest.fixture
def queried(monkeypatch):
    """Candidates passed to the exact search, one entry per fill_factor call."""
    counts = []
    nearest_squared = coverage._nearest_squared

    def counting(x, y, cx, cy, reach):
        counts.append(len(cx))
        return nearest_squared(x, y, cx, cy, reach)
    monkeypatch.setattr(coverage, "_nearest_squared", counting)
    return counts


def test_fill_factor_queries_few_centers_on_the_acceptance_grid(queried):
    # exact however loose its bound, so only a count shows a bound that went
    # infinite everywhere: that would query all 16,384 centers at grid 128
    r_grid = [F(100 + 5 * i, 100) for i in range(41)]
    assert all(row.status == "ok" for row in sweep_designs(r_grid, [6, 7, 8, 9]))
    assert len(queried) == 126                        # one call per distinct geometry
    assert np.median(queried) < 1024 / 4              # a quarter of the former 1,024 probes


def test_fill_factor_reuses_its_memory_from_call_to_call():
    # distance tiles of 2**15 elements (256 KiB) were paged in afresh on every
    # call: 373 minor faults per call on this geometry, 0 with 64 KiB tiles
    resource = pytest.importorskip("resource")
    pattern = sample_unmodulated(design_unmodulated(F(2), 8), CFG, 0, 1000, amp_x=1.0, amp_y=1.0)
    for _ in range(3):
        fill_factor(pattern, 128)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        fill_factor(pattern, 128)
    assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20 <= 2


def test_fill_factor_tightens_the_bound_down_columns_on_a_fine_grid(queried, monkeypatch):
    # at grid 512 this pattern's holes are tens of rows deep, beyond the
    # rows _cell_bound searches, so only the column bound prunes them
    pattern = sample_unmodulated(P2, CFG, 0, 1000)
    tightened = []
    column_bound = coverage._column_bound
    monkeypatch.setattr(coverage, "_column_bound",
                        lambda squared: tightened.append(1) or column_bound(squared))
    r_max = fill_factor(pattern, 512).r_max
    assert tightened == [1]
    assert queried[0] < 512 * 512 // 16              # fewer than every 4th center per axis
    assert r_max == _r_max_over_every_center(pattern, 512)


def _patch_values(n):
    """Values at and one ulp either side of the borders of n patches across
    [-1, 1], and anywhere the old formulas' cast to an integer was in range."""
    border = st.integers(0, n).map(lambda k: -1.0 + 2.0 * k / n)
    return st.one_of(border, border.map(lambda v: math.nextafter(v, -math.inf)),
                     border.map(lambda v: math.nextafter(v, math.inf)),
                     st.sampled_from([-1.0, 1.0]), st.floats(-1e15, 1e15))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, MAX_GRID), data=st.data())
def test_patch_index_is_the_old_cell_formulas_wherever_their_cast_was_in_range(n, data):
    v = np.array(data.draw(st.lists(_patch_values(n), min_size=1, max_size=40)))
    index = coverage._patch_index(v, n)
    assert index.dtype == np.intp
    # positive_region_density's, which cast before it clamped
    assert np.array_equal(index, np.clip(((v + 1.0) * 0.5 * n).astype(int), 0, n - 1))
    inside = np.abs(v) <= 1.0       # _cell_bound's, on samples normalized to [-1, 1]
    assert np.array_equal(index[inside],
                          np.minimum(((v[inside] + 1.0) * (n / 2)).astype(np.intp), n - 1))


@pytest.mark.filterwarnings("error")
def test_patch_index_puts_a_value_past_any_integer_in_its_edge_patch():
    huge = np.array([1e300, -1e300, sys.float_info.max, -sys.float_info.max, 1e19, -1e19])
    assert coverage._patch_index(huge, 8).tolist() == [7, 0, 7, 0, 7, 0]
    assert coverage._patch_index(huge, MAX_GRID).tolist() == [MAX_GRID - 1, 0] * 3


def test_scanning_range_pinned():
    assert scanning_range(P0, CFG) == pytest.approx(1.0, rel=1e-12)
    assert scanning_range(P1, CFG) == pytest.approx(0.45173330777393683, rel=1e-12)
    assert scanning_range(P2, CFG) == pytest.approx(0.7375084657374081, rel=1e-12)


def test_sweep_takes_q_and_the_y_resonance_from_the_scanner_config(monkeypatch, with_defaults):
    # with no config, each cell's config leaves fy_res, qx and qy to ScannerConfig
    config = with_defaults(ScannerConfig, fy_res=1.25, qx=5.0, qy=4.0)
    monkeypatch.setattr(coverage, "ScannerConfig", config)
    rows = sweep_designs([F(3, 2)], [7], n_samples=50, n_grid=8)
    designs = (design_unmodulated(F(3, 2), 7), baseline_repeating_design(F(3, 2), 7))
    assert [row.scanning_range for row in rows] == [
        scanning_range(design, config(1.5)) for design in designs]
    given = ScannerConfig(1.5, fy_res=2.0, qx=3.0, qy=2.0)
    rows = sweep_designs([F(3, 2)], [7], config=given, n_samples=50, n_grid=8)
    assert [row.scanning_range for row in rows] == [    # the given Q, never its fy_res
        scanning_range(design, config(1.5, qx=3.0, qy=2.0)) for design in designs]


def test_sweep_rows_and_ordering():
    rows = sweep_designs([F(3, 2), F(8, 5)], [7, 8])
    assert [(float(r.r), r.m, r.rule) for r in rows] == [
        (1.5, 7, "proposed"), (1.5, 7, "baseline"),
        (1.5, 8, "proposed"), (1.5, 8, "baseline"),
        (1.6, 7, "proposed"), (1.6, 7, "baseline"),
        (1.6, 8, "proposed"), (1.6, 8, "baseline"),
    ]
    first = rows[0]
    assert first.status == "ok"
    assert first.fill_factor == pytest.approx(1.8765781196864306, rel=1e-12)
    assert first.scanning_range == pytest.approx(0.7375084657374081, rel=1e-12)


def test_sweep_flags_failing_cells_instead_of_dropping_them():
    # r = 5 is outside the selection rule's ratio window but fine for the baseline
    rows = sweep_designs([F(5)], [7])
    assert rows[0].rule == "proposed" and rows[0].status == "error:DomainError"
    assert rows[0].fill_factor is None and rows[0].scanning_range is None
    assert rows[1].rule == "baseline" and rows[1].status == "ok"


# at m = 7 five of these eight cells reach the geometry fx = 8/7, phix = pi/28;
# scored at each cell's own amplitudes, 6/5 came out 1 ulp away from the rest
REPEAT_GRID = [F(21, 20), F(11, 10), F(23, 20), F(6, 5)]


def test_sweep_parallel_equals_serial():
    serial = sweep_designs([F(3, 2), F(2)], [6, 7], n_samples=300, n_grid=32)
    parallel = sweep_designs([F(3, 2), F(2)], [6, 7], n_samples=300, n_grid=32, workers=2)
    assert serial == parallel
    assert sweep_designs(REPEAT_GRID, [7], workers=2) == sweep_designs(REPEAT_GRID, [7])


# 20 ratios x m in 6..9: 59 distinct geometries, so 8 pool tasks of POOL_CHUNK
POOL_GRID = ([F(k, 20) for k in range(21, 41)], [6, 7, 8, 9])


class _PoolRecorder:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no
    process and maps serially."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize("workers, cpus, grid, expected", [
    (10**6, 4, POOL_GRID, 4),          # the usable CPUs bound it
    (3, 64, POOL_GRID, 3),             # LISSSCAN_THREADS bounds it
    (10**6, 64, POOL_GRID, 8),         # the task count bounds it
    (10**6, 1, POOL_GRID, None),       # one CPU: serial
    (8, 64, ([F(3, 2), F(2)], [6, 7]), None),   # at most 8 geometries make one task: serial
], ids=["cpus", "variable", "tasks", "one-cpu", "one-task"])
def test_sweep_pool_is_bounded_before_it_starts(workers, cpus, grid, expected, monkeypatch):
    monkeypatch.setattr(_PoolRecorder, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolRecorder)
    monkeypatch.setattr(coverage.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    rows = sweep_designs(*grid, n_samples=100, n_grid=16, workers=workers)
    assert _PoolRecorder.made == ([] if expected is None else [expected])
    assert rows == sweep_designs(*grid, n_samples=100, n_grid=16)


def test_sweep_pool_of_two_processes_equals_serial(monkeypatch):
    made = []
    real = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: made.append(max_workers) or real(max_workers))
    monkeypatch.setattr(coverage.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = sweep_designs(*POOL_GRID, n_samples=100, n_grid=16)
    assert sweep_designs(*POOL_GRID, n_samples=100, n_grid=16, workers=2) == serial
    assert made == [2]


@settings(max_examples=30, deadline=None)
@given(r=st.sampled_from([F(1), F(23, 20), F(3, 2), F(2), F(59, 20), F(3)]),
       m=st.integers(6, 9), baseline=st.booleans(),
       amp_x=st.floats(1e-6, 1e6), amp_y=st.floats(1e-6, 1e6))
def test_fill_factor_does_not_depend_on_amplitude(r, m, baseline, amp_x, amp_y):
    design = (baseline_repeating_design if baseline else design_unmodulated)(r, m)
    unit = fill_factor(sample_unmodulated(design, CFG, 0, 300, amp_x=1.0, amp_y=1.0), 32)
    scaled = fill_factor(sample_unmodulated(design, CFG, 0, 300, amp_x=amp_x, amp_y=amp_y), 32)
    assert abs(scaled.fill_factor - unit.fill_factor) <= 1e-15


def test_sweep_cells_sharing_a_geometry_share_a_fill_factor():
    rows = sweep_designs(REPEAT_GRID, [7])
    fills = {}
    for row in rows:
        assert row.status == "ok"
        d = (design_unmodulated if row.rule == "proposed" else baseline_repeating_design)(row.r, 7)
        fills.setdefault((d.fx, d.fy, d.phix, d.phiy, d.m), set()).add(row.fill_factor)
    assert len(fills) < len(rows)                    # the grid does repeat geometries
    assert all(len(values) == 1 for values in fills.values())


def test_sweep_scores_each_distinct_geometry_once(monkeypatch):
    calls = []
    real = coverage.fill_factor
    monkeypatch.setattr(coverage, "fill_factor", lambda *a, **k: calls.append(1) or real(*a, **k))
    grid = REPEAT_GRID + [F(39, 20), F(2)]
    rows = sweep_designs(grid, [6, 7])
    distinct = {(d.fx, d.fy, d.phix, d.phiy, d.m) for r in grid for m in (6, 7)
                for d in (design_unmodulated(r, m), baseline_repeating_design(r, m))}
    assert len(rows) == 2 * len(grid) * 2
    assert len(calls) == len(distinct) < len(rows)


def test_sweep_counts_a_repeated_ratio_or_frame_time_once():
    rows = sweep_designs([1.5, F(3, 2), F(8, 5)], [7, 7], n_samples=300, n_grid=32)
    assert rows == sweep_designs([F(3, 2), F(8, 5)], [7], n_samples=300, n_grid=32)
    assert [(row.r, row.m) for row in rows] == [(F(3, 2), 7)] * 2 + [(F(8, 5), 7)] * 2


@pytest.mark.parametrize("sizes", [{"n_grid": 1}, {"n_grid": 2.5}, {"n_samples": 1},
                                   {"n_samples": True}, {"n_samples": "50"}])
def test_sweep_refuses_an_invalid_size_before_it_builds_a_design_or_a_pool(sizes, monkeypatch):
    # each cell came back as error:DomainError, after every design was built
    # and a process pool started to score them
    def fail(*args, **kwargs):
        raise AssertionError("built before the sizes were checked")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fail)
    monkeypatch.setattr(coverage, "design_unmodulated", fail)
    monkeypatch.setattr(coverage, "baseline_repeating_design", fail)
    monkeypatch.setattr(coverage.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(DomainError, match=f"^{next(iter(sizes))} must be"):
        sweep_designs(*POOL_GRID, workers=2, **sizes)


def test_sweep_validation():
    with pytest.raises(DomainError):
        sweep_designs([], [7])
    with pytest.raises(DomainError):
        sweep_designs([F(3, 2)], [])


def test_workers_env(monkeypatch):
    monkeypatch.delenv("LISSSCAN_THREADS", raising=False)
    assert sweep_workers_from_env() is None
    monkeypatch.setenv("LISSSCAN_THREADS", "4")
    assert sweep_workers_from_env() == 4
    monkeypatch.setenv("LISSSCAN_THREADS", "0")
    with pytest.raises(DomainError):
        sweep_workers_from_env()
    monkeypatch.setenv("LISSSCAN_THREADS", "many")
    with pytest.raises(DomainError):
        sweep_workers_from_env()


def _phase_tolerance_afresh(design, config, deltas):
    """phase_tolerance_sweep as one fresh sampling of each shifted design."""
    out = []
    for delta in deltas:
        delta = number_value(delta, "delta")
        shifted = UnmodulatedDesign(design.fx, design.phix + delta, design.m, design.fy,
                                    design.phiy)
        out.append((delta, coverage.fill_factor(
            coverage.sample_unmodulated(shifted, config)).fill_factor))
    return out


@settings(max_examples=30, deadline=None)
@given(fx=st.fractions(F(1, 8), 4, max_denominator=256), fy=st.fractions(F(1, 4), 2, max_denominator=16),
       phix=st.floats(-10.0, 10.0), phiy=st.floats(-10.0, 10.0), m=st.integers(2, 64),
       r=st.floats(1.0, 3.0), deltas=st.lists(st.floats(-7.0, 7.0), max_size=4))
def test_phase_tolerance_sweep_is_a_fresh_sampling_of_each_offset_bit_for_bit(
        fx, fy, phix, phiy, m, r, deltas):
    assume(fx > 0 and fy > 0)
    design = UnmodulatedDesign(fx=fx, phix=phix, m=m, fy=fy, phiy=phiy)
    config = ScannerConfig.normalized(r)
    assert phase_tolerance_sweep(design, config, deltas) == \
        _phase_tolerance_afresh(design, config, deltas)


def test_phase_tolerance_sweep_samples_each_design_once(monkeypatch):
    monkeypatch.setattr(coverage, "sample_unmodulated", mock.Mock(side_effect=AssertionError))
    assert phase_tolerance_sweep(P2, CFG, []) == []
    monkeypatch.setattr(coverage, "sample_unmodulated", mock.Mock(wraps=sample_unmodulated))
    assert len(phase_tolerance_sweep(P2, CFG, [0.0, 0.1, 0.2])) == 3
    assert coverage.sample_unmodulated.call_count == 1


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_phase_tolerance_sweep_refuses_an_overflowing_phase_as_a_design_does(sign):
    design = UnmodulatedDesign(fx=F(3, 2), phix=sign * 1e308, m=7)
    with pytest.raises(DomainError) as fresh:
        _phase_tolerance_afresh(design, CFG, [sign * 1e308])
    with pytest.raises(DomainError) as swept:
        phase_tolerance_sweep(design, CFG, [sign * 1e308])
    assert str(swept.value) == str(fresh.value) == f"phix must be finite, got {sign * math.inf}"


@pytest.mark.parametrize("bad", [math.nan, -math.inf, "x", True, None])
def test_phase_tolerance_sweep_raises_at_the_first_bad_offset(bad, monkeypatch):
    calls = []
    real = coverage.fill_factor
    monkeypatch.setattr(coverage, "fill_factor", lambda *a: calls.append(1) or real(*a))
    with pytest.raises(DomainError) as fresh:
        _phase_tolerance_afresh(P2, CFG, [0.0, 0.1, bad, 0.2])
    assert len(calls) == 2
    calls.clear()
    with pytest.raises(DomainError) as swept:
        phase_tolerance_sweep(P2, CFG, [0.0, 0.1, bad, 0.2])
    assert len(calls) == 2 and str(swept.value) == str(fresh.value)


def test_phase_tolerance_sweep_pinned():
    out = phase_tolerance_sweep(P2, CFG, [0.0, math.radians(10), math.radians(20)])
    fills = {round(math.degrees(d)): f for d, f in out}
    assert fills[0] == pytest.approx(1.8765781196864306, rel=1e-12)
    assert fills[10] == pytest.approx(1.8506340477351237, rel=1e-12)
    assert fills[20] == pytest.approx(1.759868575464889, rel=1e-12)
