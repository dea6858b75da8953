"""Multi-tone parameterization, weighted-coverage objective, and the
projected-descent optimizer."""

import copy
import inspect
import math
import pickle
import sys
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lissscan import modulated
from lissscan import (ROI_A, ROI_B, Assignment, DriftScenario, ModulatedParams, OptimizeOptions,
                      SampledPattern, ScannerConfig, WeightMap, case1_criterion,
                      default_tone_indices, design_unmodulated, fill_factor, gradient,
                      initial_params, objective, optimize,
                      positive_region_density, project_absolute, project_rms,
                      reference_pattern, roi_density, sample_unmodulated, simulate_drift_control,
                      sweep_designs, synthesize_modulated, transfer_amplitude)
from lissscan.coverage import MAX_GRID, MAX_ITERS, MAX_SAMPLES, _patch_centers
from lissscan.errors import DomainError, InvalidParams, OptimizationFailed
from lissscan.modulated import FEASIBILITY_SLACK

F = Fraction


# ------------------------------------------------------------------ weight maps

def test_weight_map_validation():
    with pytest.raises(DomainError):
        WeightMap(np.ones((4, 5)))
    with pytest.raises(DomainError):
        WeightMap(np.ones(16))
    with pytest.raises(DomainError):
        WeightMap(np.full((4, 4), -0.1))
    with pytest.raises(DomainError):
        WeightMap(np.full((4, 4), math.nan))
    assert np.array_equal(WeightMap.uniform(8).w, np.ones((8, 8)))


def test_weight_map_from_rectangles():
    wmap = WeightMap.from_rectangles([ROI_B], 32)
    assert set(np.unique(wmap.w)) == {0.0, 1.0}
    # patch centers -1 + (2i+1)/32 inside [0.2, 0.9] x [0.2, 0.8]
    assert int(np.count_nonzero(wmap.w)) == 11 * 10
    ix, iy = np.nonzero(wmap.w)
    cx = -1.0 + (2.0 * ix + 1.0) / 32
    cy = -1.0 + (2.0 * iy + 1.0) / 32
    assert cx.min() >= 0.2 and cx.max() <= 0.9
    assert cy.min() >= 0.2 and cy.max() <= 0.8


def test_weight_map_keeps_a_read_only_copy_of_its_weights():
    # the map used to keep the caller's array, so writing into it after
    # construction left a validated map holding a negative weight and a NaN
    a = np.ones((4, 4))
    wmap = WeightMap(a)
    a[0, 0], a[1, 1] = -5.0, math.nan
    assert np.array_equal(wmap.w, np.ones((4, 4))) and wmap.w.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        wmap.w[0, 0] = 2.0
    with pytest.raises(AttributeError):
        wmap.w = np.zeros((4, 4))
    for copied in (copy.copy(wmap), copy.deepcopy(wmap), pickle.loads(pickle.dumps(wmap))):
        assert np.array_equal(copied.w, wmap.w) and not copied.w.flags.writeable
    assert WeightMap(np.asfortranarray(wmap.w)).w.flags.c_contiguous   # one layout, one sum order
    assert np.array_equal(WeightMap(np.eye(3, dtype=int)).w, np.eye(3))   # integers and booleans
    assert np.array_equal(WeightMap(np.eye(3, dtype=bool)).w, np.eye(3))  # read as floats


@pytest.mark.filterwarnings("error")      # no ComplexWarning on the way
@pytest.mark.parametrize("weights", [
    np.full((2, 2), 1 + 1j),                          # lost its imaginary part
    np.full((2, 2), 1 + 0j),
    [["a", "b"], ["c", "d"]],                         # raised a raw ValueError
    [["1", "0"], ["0", "1"]],                         # were read as numbers
    np.array([[F(1, 2)]], dtype=object),              # was read as 0.5
    np.array([[1.0, None], [0.0, 1.0]], dtype=object),
    [[1.0, 0.0], [1.0]],                              # rows of different lengths: a raw ValueError
    [[10**400]],                                      # a raw OverflowError
], ids=["complex", "complex-real", "strings", "numeric-strings", "fraction-object", "none",
        "ragged", "huge-int"])
def test_weight_map_refuses_weights_that_are_not_real_numbers(weights):
    with pytest.raises(DomainError, match="^weights must be"):
        WeightMap(weights)


def test_a_weight_maps_search_plan_is_its_own():
    # the plan is built once per map, from the map's own copy of the weights
    a = np.zeros((8, 8))
    a[2:5, 3:6] = 1.0
    first, second = WeightMap(a), WeightMap(a)
    assert first._plan is first._plan and first._plan is not second._plan
    assert not np.shares_memory(first.w, second.w) and not np.shares_memory(first.w, a)
    a[:] = 1.0                                        # the caller's array changes afterwards
    third = WeightMap(a)
    assert len(first._plan.flat) == len(second._plan.flat) == 9
    assert len(third._plan.flat) == 64
    pattern = synthesize_modulated(initial_params(2), 200)
    assert objective(pattern, first, 1 / 8)[0] < objective(pattern, third, 1 / 8)[0]


# ------------------------------------------------------------------- parameters

def test_tone_ladders_pinned():
    assert default_tone_indices(1, 5) == (12, 13, 14, 15, 16)
    assert default_tone_indices(2, 5) == (24, 26, 28, 30, 32)
    assert default_tone_indices(F(13, 10), 5) == (16, 17, 18, 20, 21)
    assert default_tone_indices(1, 3) == (13, 14, 15)
    assert default_tone_indices(2, 3) == (26, 28, 30)
    assert default_tone_indices(F(13, 10), 3) == (17, 18, 20)
    with pytest.raises(InvalidParams):
        default_tone_indices(1, 4)
    with pytest.raises(InvalidParams, match="^resonance ratio must be positive$"):
        default_tone_indices(0, 5)
    with pytest.raises(InvalidParams):
        default_tone_indices(F(1, 100), 5)   # rounds below the grid


def test_initial_params_layout():
    params = initial_params(2, m=7, n_tones=5)
    assert params.nx == (24, 26, 28, 30, 32)
    assert params.ny == (12, 13, 14, 15, 16)
    assert params.alpha[2] == 0.95 and np.count_nonzero(params.alpha) == 1
    assert params.beta[2] == 0.95 and np.count_nonzero(params.beta) == 1
    assert np.all(params.gamma == 0) and np.all(params.delta == 0)
    assert params.rms_x == pytest.approx(0.95) and params.rms_y == pytest.approx(0.95)
    assert params.config.fx_res == 2.0 and params.config.fy_res == 1.0
    single = initial_params(2, m=7, n_tones=3, y_single_tone=True)
    assert single.ny == (14,)
    np.testing.assert_allclose(single.fy_tones, [1.0])


def test_initial_params_takes_q_and_the_y_resonance_from_the_scanner_config(monkeypatch,
                                                                          with_defaults):
    defaults = inspect.signature(initial_params).parameters
    assert (defaults["qx"].default, defaults["qy"].default) == (ScannerConfig.qx, ScannerConfig.qy)
    monkeypatch.setattr(modulated, "ScannerConfig", with_defaults(ScannerConfig, fy_res=1.25))
    params = initial_params(2, n_tones=3, qx=5.0, qy=4.0)
    assert (params.config.fy_res, params.config.qx, params.config.qy) == (1.25, 5.0, 4.0)


def test_tone_frequencies_sit_on_the_grid():
    params = initial_params(2, m=7, n_tones=5)
    np.testing.assert_allclose(params.fx_tones, np.array([24, 26, 28, 30, 32]) / 14.0)
    assert params.fx_tones[2] == pytest.approx(2.0)   # center tone on resonance


@pytest.mark.parametrize("cos_name, sin_name", [("alpha", "gamma"), ("beta", "delta")])
def test_coefficient_rms_bound_is_one_plus_the_feasibility_slack(cos_name, sin_name):
    base, zeros = initial_params(1, n_tones=3), np.zeros(3)
    for rms in (1.0 + FEASIBILITY_SLACK / 2, 1.0 + FEASIBILITY_SLACK):
        params = base.with_coefficients(**{cos_name: [rms, 0.0, 0.0], sin_name: zeros})
        assert getattr(params, cos_name)[0] == rms
    with pytest.raises(InvalidParams, match="coefficient RMS 1.000000 exceeds 1"):
        base.with_coefficients(**{cos_name: [1.0 + 2 * FEASIBILITY_SLACK, 0.0, 0.0],
                                  sin_name: zeros})


def test_params_validation():
    base = initial_params(1, n_tones=3)
    with pytest.raises(InvalidParams):
        base.with_coefficients(alpha=[1.2, 0.0, 0.0])   # RMS above 1
    with pytest.raises(InvalidParams):
        base.with_coefficients(alpha=[0.1, 0.2])        # length mismatch
    with pytest.raises(InvalidParams):
        base.with_coefficients(alpha=[math.nan, 0.0, 0.0])
    with pytest.raises(InvalidParams):
        ModulatedParams(alpha=[0.1], gamma=[0.0], beta=[0.1], delta=[0.0],
                        nx=(14, 14), ny=(14,), L=2, m=7, config=base.config)
    with pytest.raises(InvalidParams):
        ModulatedParams(alpha=[0.1, 0.1], gamma=[0.0, 0.0], beta=[0.1], delta=[0.0],
                        nx=(15, 14), ny=(14,), L=2, m=7, config=base.config)
    with pytest.raises(InvalidParams):
        ModulatedParams(alpha=[0.1], gamma=[0.0], beta=[0.1], delta=[0.0],
                        nx=(14,), ny=(14,), L=0, m=7, config=base.config)


_MALFORMED_COEFFICIENTS = {
    "string": (np.array(["0.1", "0", "0"]), "got dtype <U3"),
    "complex": (np.array([0.1j, 0.0, 0.0]), "got dtype complex128"),
    "ragged": ([[0.1], [0.1, 0.2], 0.0], r"got \[\[0.1\], \[0.1, 0.2\], 0.0\]"),
    "object": (np.array([0.1, 0.0, 0.0], dtype=object), "got dtype object"),
}


@pytest.mark.filterwarnings("error")      # complex input dropped its imaginary part with a warning
@pytest.mark.parametrize("build", ["ModulatedParams", "with_coefficients"])
@pytest.mark.parametrize("kind", list(_MALFORMED_COEFFICIENTS))
def test_malformed_coefficient_arrays_raise_invalid_params(kind, build):
    # a string, complex or ragged array raised numpy's ValueError or TypeError
    base = initial_params(1, n_tones=3)
    value, got = _MALFORMED_COEFFICIENTS[kind]
    with pytest.raises(InvalidParams, match=f"^delta must be an array of real numbers, {got}$"):
        if build == "ModulatedParams":
            replace(base, delta=value)
        else:
            base.with_coefficients(delta=value)


def test_with_coefficients_partial_update():
    base = initial_params(1, n_tones=3)
    new = base.with_coefficients(gamma=[0.1, 0.2, 0.1])
    np.testing.assert_array_equal(new.alpha, base.alpha)
    np.testing.assert_allclose(new.gamma, [0.1, 0.2, 0.1])
    assert new.nx == base.nx and new.config == base.config
    np.testing.assert_array_equal(base.gamma, np.zeros(3))   # original untouched
    gamma = np.array([0.1, 0.2, 0.1])
    new = base.with_coefficients(gamma=gamma)
    gamma[0] = 5.0                                           # the params hold their own copy
    assert new.gamma.tolist() == [0.1, 0.2, 0.1]


def test_params_dict_round_trip():
    rng = np.random.default_rng(3)
    base = initial_params(F(13, 10), n_tones=5)
    params = base.with_coefficients(*(rng.uniform(-0.2, 0.2, 5) for _ in range(4)))
    back = ModulatedParams.from_dict(params.to_dict())
    for name in ("alpha", "gamma", "beta", "delta"):
        np.testing.assert_array_equal(getattr(back, name), getattr(params, name))
    assert back.nx == params.nx and back.ny == params.ny
    assert back.config == params.config
    with pytest.raises(InvalidParams):
        ModulatedParams.from_dict({"alpha": [0.1]})


@pytest.mark.parametrize("field, value", [
    ("L", None), ("m", "seven"), ("nx", 5), ("alpha", "abc"), ("alpha", {"a": 1}),
    ("L", 1e308),                       # L * m overflows the float tone grid
    ("L", 2.5), ("m", True), ("nx", [13, 14.5, 15]), ("ny", [True, 14, 15]),
    ("alpha", [0.1, False, 0.0]),       # booleans and fractions used to pass as numbers
    ("beta", [0.1, 0.0]), ("delta", [0.0]),   # y coefficients against three ny tones
    ("alpha", [1e200, 0.0, 0.0]),       # the RMS overflows, with no numpy warning
])
@pytest.mark.filterwarnings("error")
def test_params_record_with_a_malformed_field_is_invalid_params(field, value):
    record = initial_params(F(2), n_tones=3).to_dict()
    record[field] = value
    with pytest.raises(InvalidParams):
        ModulatedParams.from_dict(record)


# -------------------------------------------------------------------- synthesis

def test_single_tone_synthesis_matches_closed_form():
    cfg = ScannerConfig.normalized(1.0)
    params = ModulatedParams(alpha=[0.8], gamma=[0.0], beta=[0.0], delta=[0.6],
                             nx=(14,), ny=(13,), L=2, m=7, config=cfg)
    pattern = synthesize_modulated(params, 200)
    hx = transfer_amplitude(cfg, "x", 1.0)
    hy = transfer_amplitude(cfg, "y", 13 / 14)
    np.testing.assert_allclose(pattern.x, 0.8 * hx * np.cos(2 * np.pi * pattern.t), atol=1e-12)
    np.testing.assert_allclose(pattern.y, 0.6 * hy * np.sin(2 * np.pi * (13 / 14) * pattern.t),
                               atol=1e-12)


def test_synthesis_is_linear_in_the_coefficients():
    rng = np.random.default_rng(11)
    base = initial_params(F(3, 2), n_tones=5)
    p1 = base.with_coefficients(*(rng.uniform(-0.3, 0.3, 5) for _ in range(4)))
    p2 = base.with_coefficients(*(rng.uniform(-0.3, 0.3, 5) for _ in range(4)))
    mix = base.with_coefficients(*(0.4 * getattr(p1, n) - 0.5 * getattr(p2, n)
                                   for n in ("alpha", "gamma", "beta", "delta")))
    sa, sb, sm = (synthesize_modulated(p, 300) for p in (p1, p2, mix))
    np.testing.assert_allclose(sm.x, 0.4 * sa.x - 0.5 * sb.x, atol=1e-12)
    np.testing.assert_allclose(sm.y, 0.4 * sa.y - 0.5 * sb.y, atol=1e-12)


def test_synthesis_window_and_bookkeeping():
    params = initial_params(2, n_tones=3)
    one = synthesize_modulated(params, 500)
    assert one.t[0] == 0.0 and one.t[-1] == pytest.approx(7.0 - 7.0 / 500.0)
    with pytest.raises(DomainError):
        synthesize_modulated(params, 1)


@pytest.mark.filterwarnings("error")
def test_synthesis_past_float_range_is_a_domain_error_without_a_warning():
    # a tone of 1e308 / 14 cycles per y cycle overflows its phase to inf, and
    # cos(inf) is NaN: numpy warns of both unless synthesis keeps them quiet
    params = ModulatedParams(alpha=[0.5], gamma=[0.0], beta=[0.5], delta=[0.0], nx=(10**308,),
                             ny=(14,), L=2, m=7, config=ScannerConfig(2.0))
    with pytest.raises(DomainError, match="^t, x, y must be finite$"):
        synthesize_modulated(params, 50)


def test_reference_pattern_is_the_single_tone_design():
    ref = reference_pattern(2, 7)
    cfg = ScannerConfig.normalized(2.0)
    direct = sample_unmodulated(design_unmodulated(F(2), 7), cfg, n_samples=500)
    np.testing.assert_array_equal(ref.x, direct.x)
    np.testing.assert_array_equal(ref.y, direct.y)
    custom = reference_pattern(2, 7, config=ScannerConfig(fx_res=2.0, qx=5.0), n_samples=200)
    assert len(custom.x) == 200
    assert np.max(np.abs(custom.x)) != pytest.approx(np.max(np.abs(ref.x)))


# -------------------------------------------------------------------- objective

def test_objective_matches_brute_force():
    rng = np.random.default_rng(5)
    n = 40
    pattern = SampledPattern(t=np.arange(n) * 0.1, x=rng.uniform(-1, 1, n),
                             y=rng.uniform(-1, 1, n))
    wmap = WeightMap(rng.uniform(0, 1, (8, 8)))
    threshold = 0.15
    loss, asg = objective(pattern, wmap, threshold)
    centers = -1.0 + (2.0 * np.arange(8) + 1.0) / 8
    expected = 0.0
    for i, cx in enumerate(centers):
        for j, cy in enumerate(centers):
            d2 = (pattern.x - cx) ** 2 + (pattern.y - cy) ** 2
            k = int(np.argmin(d2))
            assert asg.n_idx[i, j] == k
            if d2[k] < threshold ** 2:
                assert asg.occupied[i, j]
            else:
                assert not asg.occupied[i, j]
                expected += wmap.w[i, j] * d2[k]
    assert loss == pytest.approx(expected, rel=1e-12)


@st.composite
def _tied_problems(draw):
    """Weight maps with zero patches, and samples with exact duplicates and
    lattice points equidistant from patch centers, so nearest-sample ties occur."""
    size = draw(st.integers(1, 10))
    w = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0]),
                      min_size=size * size, max_size=size * size))
    coord = st.one_of(st.sampled_from([-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]),
                      st.floats(-1.5, 1.5))
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(points) - 1), min_size=2, max_size=30))
    x, y = (np.array([points[i][axis] for i in picks]) for axis in (0, 1))
    pattern = SampledPattern(t=np.arange(len(picks)) * 1.0, x=x, y=y)
    threshold = draw(st.sampled_from([0.0, 0.1, 1.0 / size, 0.5]))
    return pattern, WeightMap(np.reshape(w, (size, size))), threshold


@settings(max_examples=150, deadline=None)
@given(problem=_tied_problems())
def test_objective_searches_weighted_patches_like_a_full_brute_force(problem):
    pattern, wmap, threshold = problem
    loss, asg = objective(pattern, wmap, threshold)
    centers = -1.0 + (2.0 * np.arange(wmap.size) + 1.0) / wmap.size
    best = np.empty_like(wmap.w)
    for i, cx in enumerate(centers):
        for j, cy in enumerate(centers):
            d2 = (pattern.x - cx) ** 2 + (pattern.y - cy) ** 2
            first = int(np.flatnonzero(d2 == d2.min())[0])
            best[i, j] = d2[first]
            if wmap.w[i, j] > 0:
                assert asg.n_idx[i, j] == first
                assert asg.occupied[i, j] == (d2[first] < threshold ** 2)
            else:
                assert not asg.occupied[i, j]
    occupied = best < threshold ** 2
    assert loss == float(np.sum(np.where(occupied, 0.0, wmap.w) * best))


def _row_loop_assign(x, y, wmap, threshold):
    """The nearest-sample search as a loop over the rows holding a positive
    patch, one (patches, N) array per row: the reference for _assign."""
    size = wmap.size
    centers = -1.0 + (2.0 * np.arange(size) + 1.0) / size
    dx2 = (centers[:, None] - x[None, :]) ** 2
    dy2 = (centers[:, None] - y[None, :]) ** 2
    positive = wmap.w > 0
    n_idx = np.zeros((size, size), dtype=np.intp)
    best = np.zeros((size, size))
    for ix in np.flatnonzero(positive.any(axis=1)):
        iy = np.flatnonzero(positive[ix])
        d2 = dx2[ix][None, :] + dy2[iy]
        idx = np.argmin(d2, axis=1)
        n_idx[ix, iy] = idx
        best[ix, iy] = d2[np.arange(len(iy)), idx]
    occupied = positive & (best < threshold * threshold)
    wbar = np.where(occupied, 0.0, wmap.w)
    return float(np.sum(wbar * best)), Assignment(n_idx=n_idx, occupied=occupied)


def _span(draw, low, high):
    """A non-empty index range inside [low, high)."""
    start = draw(st.integers(low, high - 1))
    return slice(start, draw(st.integers(start + 1, high)))


@st.composite
def _roi_maps(draw):
    """Weight maps shaped like regions of interest: one rectangle, two
    rectangles on disjoint rows, a disc, a random mask, a uniform map or a
    single patch, with random positive weights."""
    size = draw(st.integers(1, 64))
    shape = draw(st.sampled_from(["rectangle", "two rectangles", "disc", "random", "uniform",
                                  "single patch"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.zeros((size, size), dtype=bool)
    if shape == "rectangle" or (shape == "two rectangles" and size == 1):
        mask[_span(draw, 0, size), _span(draw, 0, size)] = True
    elif shape == "two rectangles":
        split = draw(st.integers(1, size - 1))
        mask[_span(draw, 0, split), _span(draw, 0, size)] = True
        mask[_span(draw, split, size), _span(draw, 0, size)] = True
    elif shape == "disc":
        centers = _patch_centers(size)
        cx, cy = draw(st.floats(-1, 1)), draw(st.floats(-1, 1))
        mask = (centers[:, None] - cx) ** 2 + (centers - cy) ** 2 <= draw(st.floats(0, 1.5)) ** 2
    elif shape == "random":
        mask = rng.uniform(size=(size, size)) < draw(st.sampled_from([0.02, 0.1, 0.5]))
    elif shape == "uniform":
        mask[:] = True
    else:
        mask[draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))] = True
    return WeightMap(np.where(mask, rng.uniform(0.1, 2.0, (size, size)), 0.0))


@st.composite
def _search_problems(draw):
    """A weight map, samples with exact repeats (a pattern that retraces
    itself) and pairs mirrored about a patch center (equidistant from it), a
    threshold, a search block size, and a hint of one sample per positive
    patch: random samples, sample 0, each patch's nearest sample, or one
    sample made NaN or infinite on one axis."""
    wmap = draw(_roi_maps())
    coord = st.one_of(st.integers(-20, 20).map(lambda k: k / 16), st.floats(-1.5, 1.5))
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=60))
    if draw(st.booleans()):
        cx = _patch_centers(wmap.size)[draw(st.integers(0, wmap.size - 1))]
        points += [(2.0 * cx - u, v) for u, v in points]
    points *= draw(st.integers(2, 4))                 # every lap repeats the samples exactly
    x, y = np.array(points).T.copy()
    threshold = draw(st.sampled_from([0.0, 1.0 / wmap.size, 0.3]))
    block = draw(st.sampled_from([modulated.SEARCH_BLOCK, 1, 1000]))
    patches = np.count_nonzero(wmap.w > 0)
    kind = draw(st.sampled_from(["random", "zero", "nearest", "non-finite"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        hint = rng.integers(0, len(x), patches)
    elif kind == "nearest":
        hint = _row_loop_assign(x, y, wmap, threshold)[1].n_idx.take(np.flatnonzero(wmap.w > 0))
    else:
        hint = np.zeros(patches, dtype=np.intp)
    if kind == "non-finite":
        hint[:] = draw(st.integers(0, len(x) - 1))
        (x, y)[draw(st.integers(0, 1))][hint[:1]] = draw(st.sampled_from([math.nan, math.inf,
                                                                           -math.inf]))
    return x, y, wmap, threshold, block, hint


def _roi_problem(size):
    """ROI_B's map and a 500-sample pattern: the optimizer's own search, in
    several blocks at the module's block size, hinted with the nearest
    samples of the pattern moved by 0.02 in x, as by one step."""
    pattern = synthesize_modulated(initial_params(2), 500)
    wmap, threshold = WeightMap.from_rectangles([ROI_B], size), 1.0 / size
    hint = _row_loop_assign(pattern.x + 0.02, pattern.y, wmap, threshold)[1].n_idx
    return (pattern.x, pattern.y, wmap, threshold, modulated.SEARCH_BLOCK,
            hint.take(np.flatnonzero(wmap.w > 0)))


# Hints whose widened box must keep a sample that lies just past the plain
# distance to the hint: its square underflows to 0 (1x1 map, threshold 0),
# or, at coordinates near 2**53, it is strictly nearer while the rounded
# square root of the hint's distance leaves it out (2x2 map, one patch).
_UNDERFLOW = (np.array([0.0, 0.0]), np.array([1.224e-291] * 2), WeightMap(np.ones((1, 1))), 0.0,
              modulated.SEARCH_BLOCK, np.array([1]))
_ROUNDED_ROOT = (np.array([8557090558846626.0, 8557090558846627.0]),
                 np.array([-83161960.39885111, 0.5]), WeightMap(np.diag([0.0, 1.0])), 0.0,
                 modulated.SEARCH_BLOCK, np.array([0]))


def _non_finite_problem(bad_x, bad_y):
    """ROI_B's 32x32 search with sample 17 set to (bad_x, bad_y), hinted
    with the nearest samples: a NaN sum wins every argmin, even for a sample
    far outside the box the hint would search."""
    pattern = synthesize_modulated(initial_params(2), 200)
    x, y = pattern.x.copy(), pattern.y.copy()
    x[17], y[17] = bad_x, bad_y
    wmap = WeightMap.from_rectangles([ROI_B], 32)
    hint = _row_loop_assign(x, y, wmap, 1 / 32)[1].n_idx.take(np.flatnonzero(wmap.w > 0))
    return x, y, wmap, 1 / 32, modulated.SEARCH_BLOCK, hint


@settings(max_examples=200, deadline=None)
@given(problem=_search_problems())
@example(problem=_roi_problem(32))
@example(problem=_roi_problem(64))
@example(problem=_UNDERFLOW)
@example(problem=_ROUNDED_ROOT)
@example(problem=_non_finite_problem(math.nan, 5.0))
@example(problem=_non_finite_problem(math.inf, math.nan))
@example(problem=_non_finite_problem(math.nan, math.nan))
@example(problem=_non_finite_problem(-math.inf, 0.5))
def test_assign_is_bit_identical_to_the_row_loop(problem):
    # _assign returns one entry per positive patch, in row-major order, whatever the hint
    x, y, wmap, threshold, block, hint = problem
    ref_loss, ref = _row_loop_assign(x, y, wmap, threshold)
    positive = np.flatnonzero(wmap.w > 0)
    with mock.patch.object(modulated, "SEARCH_BLOCK", block):
        for given_hint in (None, hint):
            loss, idx, wbar = modulated._assign(x, y, wmap, threshold, given_hint)
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert idx.dtype == ref.n_idx.dtype and np.array_equal(idx, ref.n_idx.take(positive))
            assert wbar.tobytes() == np.where(ref.occupied, 0.0, wmap.w).take(positive).tobytes()


@settings(max_examples=100, deadline=None)
@given(problem=_search_problems())
@example(problem=_roi_problem(32))
def test_objective_assignment_is_the_row_loop_maps(problem):
    x, y, wmap, threshold, block, _ = problem
    assume(np.isfinite(x).all() and np.isfinite(y).all())    # a SampledPattern is finite
    with mock.patch.object(modulated, "SEARCH_BLOCK", block):
        loss, asg = objective(SampledPattern(t=np.arange(len(x)) * 1.0, x=x, y=y), wmap, threshold)
    ref_loss, ref = _row_loop_assign(x, y, wmap, threshold)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert asg.n_idx.dtype == ref.n_idx.dtype and np.array_equal(asg.n_idx, ref.n_idx)
    assert asg.occupied.dtype == bool and np.array_equal(asg.occupied, ref.occupied)


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["0.0", "-0.0"])
def test_objective_on_a_map_without_a_positive_patch_is_zero(zero):
    pattern = synthesize_modulated(initial_params(2), 200)
    wmap = WeightMap(np.full((6, 6), zero))
    loss, asg = objective(pattern, wmap, 0.1)
    ref_loss, ref = _row_loop_assign(pattern.x, pattern.y, wmap, 0.1)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes() == np.float64(0.0).tobytes()
    assert asg.n_idx.shape == asg.occupied.shape == (6, 6)
    assert np.array_equal(asg.n_idx, ref.n_idx) and not asg.n_idx.any()
    assert np.array_equal(asg.occupied, ref.occupied) and not asg.occupied.any()
    with pytest.raises(InvalidParams, match="no positive entries"):
        optimize(initial_params(2), wmap)


def _full_loss_fixed(x, y, wmap, asg):
    """The frozen-assignment loss over every patch of the map: the
    reference for _loss_fixed on the positive patches."""
    centers = _patch_centers(wmap.size)
    d2 = (centers[:, None] - x.take(asg.n_idx)) ** 2 + (centers - y.take(asg.n_idx)) ** 2
    wbar = np.where(asg.occupied, 0.0, wmap.w)
    return float(np.add.reduce(wbar * d2, axis=None))


def _full_gradient_fixed(x, y, wmap, asg, bxc, bxs, byc, bys):
    """The frozen-assignment gradient over every patch of the map."""
    centers = _patch_centers(wmap.size)
    wbar = np.where(asg.occupied, 0.0, wmap.w)
    idx = asg.n_idx.ravel()
    s1 = np.bincount(idx, weights=wbar.ravel(), minlength=len(x))
    sx = np.bincount(idx, weights=(wbar * centers[:, None]).ravel(), minlength=len(x))
    sy = np.bincount(idx, weights=(wbar * centers[None, :]).ravel(), minlength=len(x))
    gx = 2.0 * (x * s1 - sx)
    gy = 2.0 * (y * s1 - sy)
    return bxc.T @ gx, bxs.T @ gx, byc.T @ gy, bys.T @ gy


@st.composite
def _frozen_problems(draw):
    """A region-of-interest map with zero-weight holes punched into it,
    samples, random bases, and either the search's own assignment or a
    random one: every patch, weighted or not, on any sample and occupied or
    not."""
    wmap = draw(_roi_maps())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = wmap.size
    holes = rng.uniform(size=(size, size)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    wmap = WeightMap(np.where(holes, 0.0, wmap.w))
    n = draw(st.integers(2, 60))
    x, y = rng.uniform(-1.5, 1.5, (2, n))
    bases = tuple(rng.standard_normal((n, draw(st.integers(1, 5)))) for _ in range(4))
    if draw(st.booleans()):
        asg = objective(SampledPattern(t=np.arange(n) * 1.0, x=x, y=y), wmap,
                        draw(st.sampled_from([0.0, 1.0 / size, 0.3])))[1]
    else:
        asg = Assignment(n_idx=rng.integers(0, n, (size, size)),
                         occupied=rng.uniform(size=(size, size)) < 0.3)
    return x, y, wmap, asg, bases


@settings(max_examples=200, deadline=None)
@given(problem=_frozen_problems())
def test_fixed_loss_and_gradient_on_positive_patches_match_the_full_map(problem):
    # a zero-weight patch only ever adds 0.0 or -0.0, so skipping it changes no bit
    x, y, wmap, asg, bases = problem
    positive = np.flatnonzero(wmap.w > 0)          # _assign's order
    idx, wbar = asg.n_idx.take(positive), np.where(asg.occupied, 0.0, wmap.w).take(positive)
    loss = modulated._loss_fixed(x, y, wmap, idx, wbar)
    assert np.float64(loss).tobytes() == np.float64(_full_loss_fixed(x, y, wmap, asg)).tobytes()
    grad = modulated._gradient_fixed(x, y, wmap, idx, wbar, *bases)   # alpha | gamma | beta | delta
    assert grad.tobytes() == np.concatenate(_full_gradient_fixed(x, y, wmap, asg, *bases)).tobytes()


def test_a_nan_sample_makes_the_objective_raise():
    pattern = synthesize_modulated(initial_params(2), 200)
    pattern.x[17] = math.nan
    wmap = WeightMap.from_rectangles([ROI_B], 32)
    with pytest.raises(DomainError, match="^objective is not finite: nan$"):
        objective(pattern, wmap, 1 / 32)
    assert math.isnan(_row_loop_assign(pattern.x, pattern.y, wmap, 1 / 32)[0])


def test_occupied_patches_pay_nothing():
    pattern = SampledPattern(t=np.array([0.0, 1.0]), x=np.array([-0.9375, 0.5]),
                             y=np.array([-0.9375, 0.5]))
    wmap = WeightMap.uniform(16)
    # first sample sits exactly on a patch center: occupied at any threshold > 0
    loss_tight, asg = objective(pattern, wmap, 1e-6)
    assert asg.occupied[0, 0]
    loss_loose, _ = objective(pattern, wmap, 0.5)
    assert loss_loose <= loss_tight


def test_raising_the_threshold_never_raises_the_loss():
    rng = np.random.default_rng(9)
    pattern = SampledPattern(t=np.arange(60) * 0.05, x=rng.uniform(-1, 1, 60),
                             y=rng.uniform(-1, 1, 60))
    wmap = WeightMap(rng.uniform(0, 1, (16, 16)))
    losses = [objective(pattern, wmap, thr)[0] for thr in (0.0, 0.05, 0.1, 0.2, 0.4)]
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
    with pytest.raises(DomainError):
        objective(pattern, wmap, -0.1)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.1])
def test_objective_gradient_and_options_refuse_a_threshold_alike(threshold):
    # a NaN threshold used to score as if no patch were occupied, inf as 0.0
    params = initial_params(2)
    pattern = synthesize_modulated(params, 200)
    wmap = WeightMap.from_rectangles([ROI_B], 16)
    messages = set()
    for call in (lambda: objective(pattern, wmap, threshold),
                 lambda: gradient(params, wmap, 200, threshold),
                 lambda: OptimizeOptions(threshold=threshold)):
        with pytest.raises(DomainError) as err:
            call()
        messages.add(str(err.value))
    assert messages == {f"threshold must be finite and non-negative, got {threshold}"}


def test_roi_density_counting():
    pattern = SampledPattern(t=np.arange(4) * 1.0,
                             x=np.array([0.5, 0.5, -0.6, 0.2]),
                             y=np.array([0.5, 0.7, 0.0, 0.81]))
    assert roi_density(pattern, [ROI_B]) == 2      # boundary x = 0.2 is inside
    assert roi_density(pattern, [ROI_A]) == 1
    assert roi_density(pattern, [ROI_A, ROI_B]) == 3
    assert roi_density(pattern, []) == 0
    assert roi_density(pattern, [(-1, 1, -1, 1)]) == 4
    with pytest.raises(DomainError):
        roi_density(pattern, [(0.5, 0.2, 0.0, 1.0)])


def test_positive_region_density_counts_samples_in_weighted_patches():
    pattern = SampledPattern(t=np.arange(5) * 1.0,
                             x=np.array([0.5, 0.5, -0.6, 0.2, 1.5]),
                             y=np.array([0.5, 0.7, 0.0, -0.4, 1.5]))
    w = np.zeros((4, 4))
    w[3, 3] = 1.0                     # top-right patch [0.5, 1] x [0.5, 1]
    assert positive_region_density(pattern, WeightMap(w)) == 3   # (1.5, 1.5) clips into it
    w[0, 2] = 0.5                     # [-1, -0.5] x [0, 0.5]
    assert positive_region_density(pattern, WeightMap(w)) == 4
    assert positive_region_density(pattern, WeightMap.uniform(4)) == 5


@pytest.mark.filterwarnings("error")
def test_a_huge_finite_sample_counts_in_its_edge_patch_without_a_warning():
    # the cast came before the clamp: x = +-1e300 gave numpy's "invalid value
    # encountered in cast" and a wrong patch, and a count of 1
    wmap = WeightMap.from_rectangles([ROI_B], 8)
    pattern = SampledPattern(t=np.arange(3.0), x=np.array([1e300, 0.5, -1e300]),
                             y=np.full(3, 0.5))
    assert positive_region_density(pattern, wmap) == 2
    pattern = SampledPattern(t=np.arange(2.0), x=np.array([sys.float_info.max, 0.5]),
                             y=np.array([0.5, -sys.float_info.max]))
    assert positive_region_density(pattern, wmap) == 1


# ------------------------------------------------------------------- gradients

def _fd_gradient(params, wmap, n_samples, threshold, h=1e-6):
    flat = []
    for name in ("alpha", "gamma", "beta", "delta"):
        for j in range(len(getattr(params, name))):
            losses = []
            for eps in (h, -h):
                arr = getattr(params, name).copy()
                arr[j] += eps
                p = params.with_coefficients(**{name: arr})
                losses.append(objective(synthesize_modulated(p, n_samples), wmap, threshold)[0])
            flat.append((losses[0] - losses[1]) / (2 * h))
    return np.array(flat)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    base = initial_params(F(3, 2), n_tones=5)
    coef = rng.standard_normal(20)
    coef *= 0.8 / math.hypot(*coef)   # comfortably inside both RMS balls
    params = base.with_coefficients(coef[:5], coef[5:10], coef[10:15], coef[15:])
    wmap = WeightMap(rng.uniform(0, 1, (16, 16)))
    grad = gradient(params, wmap, 200, 1.0 / 16)
    analytic = np.concatenate([grad.alpha, grad.gamma, grad.beta, grad.delta])
    fd = _fd_gradient(params, wmap, 200, 1.0 / 16)
    assert np.linalg.norm(fd - analytic) / np.linalg.norm(analytic) < 1e-6


def test_gradient_is_zero_once_every_weighted_patch_is_occupied():
    params = initial_params(1, n_tones=3)
    wmap = WeightMap.uniform(8)
    grad = gradient(params, wmap, 300, threshold=3.0)   # threshold swallows the FoV
    for part in (grad.alpha, grad.gamma, grad.beta, grad.delta):
        np.testing.assert_array_equal(part, np.zeros_like(part))


# ----------------------------------------------------------------- projections

def test_rms_projection():
    a = np.array([0.3, -0.2])
    b = np.array([0.1, 0.0])
    pa, pb = project_rms(a, b)
    np.testing.assert_array_equal(pa, a)
    assert pa is not a                       # defensively copied
    big_a, big_b = a * 9.0, b * 9.0
    qa, qb = project_rms(big_a, big_b)
    norm = math.sqrt(np.sum(qa ** 2) + np.sum(qb ** 2))
    assert norm == pytest.approx(1.0, rel=1e-12)
    # direction preserved: projected vector is a positive multiple of the input
    scale = np.linalg.norm(np.concatenate([qa, qb])) / np.linalg.norm(np.concatenate([big_a, big_b]))
    np.testing.assert_allclose(np.concatenate([qa, qb]),
                               scale * np.concatenate([big_a, big_b]), atol=1e-12)


@pytest.mark.filterwarnings("error")      # the squares overflow without a warning
def test_rms_projection_of_a_large_finite_vector_is_its_direction():
    qa, qb = project_rms(np.array([1e200, 0.0]), np.array([0.0, 0.0]))
    assert qa.tolist() == [1.0, 0.0] and qb.tolist() == [0.0, 0.0]
    qa, qb = project_rms(np.array([3e200]), np.array([-4e200]))
    np.testing.assert_allclose(np.concatenate([qa, qb]), [0.6, -0.8], rtol=1e-15)


@pytest.mark.parametrize("project", [project_rms, project_absolute])
@pytest.mark.parametrize("cos_c, sin_c", [(np.ones(2), np.ones(3)), (np.ones(3), np.ones(1)),
                                          (np.ones(3), np.ones((1, 3))), (np.ones(2), [1.0])])
def test_projections_refuse_coefficients_of_different_shapes(project, cos_c, sin_c):
    # the RMS projection returned arrays of different lengths, or broadcast
    # one tone over three; the absolute one raised numpy's ValueError
    with pytest.raises(DomainError, match="must share a shape"):
        project(cos_c, sin_c)


@pytest.mark.filterwarnings("error")      # no RuntimeWarning or ComplexWarning on the way
@pytest.mark.parametrize("project", [project_rms, project_absolute])
@pytest.mark.parametrize("cos_c, sin_c, message", [
    (np.array([math.nan]), np.array([1.0]), None),
    (np.array([math.inf]), np.array([0.0]), None),
    ([0.5, 0.5], [0.5, -math.inf], None),
    (np.array([1j]), np.array([0j]), "^cos_coef must be an array of real numbers, got dtype c"),
    (np.array([1.0]), np.array(["a"]), "^sin_coef must be an array of real numbers, got dtype <U1"),
    (np.array([1.0], dtype=object), np.array([1.0]), "^cos_coef .* got dtype object$"),
    ([[1.0], [1.0, 2.0]], [1.0, 2.0], r"^cos_coef must be an array of real numbers, got \[\["),
], ids=["nan", "inf", "-inf-in-a-list", "complex", "string", "object", "ragged"])
def test_projections_refuse_what_is_not_a_pair_of_finite_real_arrays(project, cos_c, sin_c,
                                                                    message):
    # the RMS projection returned NaN (with a RuntimeWarning for inf) and took the
    # real part of a complex array; both raised TypeError for other kinds
    with pytest.raises(DomainError, match=message or "^coefficients must be finite, got "):
        project(cos_c, sin_c)


@pytest.mark.parametrize("project", [project_rms, project_absolute])
def test_projections_take_lists_of_numbers(project):
    # project_rms of two lists raised TypeError from _rms
    for cos_c, sin_c in (([3.0], [4.0]), ([3, 0], [4, 0]), ([0.1, 0.2], [0.0, 0.1])):
        got = project(cos_c, sin_c)
        want = project(np.array(cos_c, dtype=float), np.array(sin_c, dtype=float))
        assert all(g.dtype == np.float64 and g.tobytes() == w.tobytes() for g, w in zip(got, want))
    np.testing.assert_allclose(np.concatenate(project([3.0], [4.0])), [0.6, 0.8], rtol=1e-15)


@pytest.mark.filterwarnings("error")
def test_rms_projection_of_a_finite_vector_whose_rms_overflows_is_not_refused():
    # only a NaN or infinite coefficient is refused; the optimizer projects
    # such finite candidates on an overflowing step
    qa, qb = project_rms(np.full(5, 1.7e308), np.zeros(5))
    assert np.isfinite(qa).all() and np.isfinite(qb).all()


_HUGE = (st.just(0.0) | st.floats(1e300, sys.float_info.max)
         | st.floats(-sys.float_info.max, -1e300))


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None)
@example(pair=([1.7e308] * 5, [0.0] * 5))
@given(pair=st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(_HUGE, min_size=n, max_size=n), st.lists(_HUGE, min_size=n, max_size=n))))
def test_rms_projection_of_an_overflowing_rms_is_that_of_the_vector_scaled_down(pair):
    # project_rms(np.full(5, 1.7e308), np.zeros(5)) gave five zeros: the RMS
    # overflowed to inf and every coefficient was divided by it. Scaling by a
    # power of two is exact, so the projection of the vector scaled by 2**-600
    # (whose RMS stays in range) is the answer to the last bit.
    cos_c, sin_c = np.array(pair[0]), np.array(pair[1])
    assume(math.hypot(*cos_c, *sin_c) == math.inf)
    got = project_rms(cos_c, sin_c)
    want = project_rms(np.ldexp(cos_c, -600), np.ldexp(sin_c, -600))
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert modulated._rms(*got) <= 1.0 + FEASIBILITY_SLACK


@settings(max_examples=300, deadline=None)
@example(pair=([-1.3373992819728743e+265], [-1.1367426697228907e+270]), k=459)
@given(pair=st.integers(1, 8).flatmap(lambda n: st.tuples(*[st.lists(
    st.floats(-1e307, 1e307, allow_subnormal=False), min_size=n, max_size=n)] * 2)),
    k=st.integers(1, 1100))
def test_rms_projection_is_that_of_the_vector_scaled_by_any_power_of_two(pair, k):
    # a vector whose squares overflowed was projected through math.hypot, and
    # its projection could differ from that of the vector scaled into range by
    # 1-2 ulps; a power of two now leaves the projection unchanged wherever
    # scaling the largest entry below 1 is exact for every entry
    cos_c, sin_c = np.array(pair[0]), np.array(pair[1])
    top = math.frexp(max(np.abs(cos_c).max(), np.abs(sin_c).max()))[1]
    assume(top > 1)     # the largest entry is at least 1, so the RMS is too
    assume(all(np.array_equal(np.ldexp(np.ldexp(v, -top), top), v) for v in (cos_c, sin_c)))
    k = min(k, top - 1)     # the scaled vector's RMS stays at least 1
    got, want = project_rms(cos_c, sin_c), project_rms(np.ldexp(cos_c, -k), np.ldexp(sin_c, -k))
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


_FINITE = st.floats(-1.7e308, 1.7e308)     # subnormals, both zeros and 1.7e308 included
_NORMS = {project_rms: modulated._rms,
          project_absolute: lambda cos_c, sin_c: float(np.hypot(cos_c, sin_c).sum())}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("project", [project_rms, project_absolute])
@settings(max_examples=300, deadline=None)
@example(pair=([1e16, 1.0], [0.0, 0.0]))          # the absolute projection refused it
@example(pair=([2.0**53 + 2, 0.0], [0.0, 0.0]))   # ... and put a magnitude of 2 on this one
@example(pair=([1e8, 1e8 - 0.3], [0.0, 0.0]))     # ... and 1 + 1.5e-8 in all on this one
@example(pair=([1.7e308], [1.7e308]))             # hypot overflowed with a RuntimeWarning
@example(pair=([5e-324, -5e-324], [0.0, 5e-324]))
@given(pair=st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(_FINITE, min_size=n, max_size=n), st.lists(_FINITE, min_size=n, max_size=n))))
def test_projections_place_every_finite_pair_in_the_constraint_set(project, pair):
    # a feasible pair comes back byte for byte, any other within the slack of
    # the set, and projecting the result again moves it by at most the slack
    cos_c, sin_c = np.array(pair[0]), np.array(pair[1])
    got = project(cos_c, sin_c)
    assert all(g.dtype == np.float64 and g.shape == cos_c.shape and np.isfinite(g).all()
               for g in got)
    assert _NORMS[project](*got) <= 1.0 + FEASIBILITY_SLACK
    with np.errstate(over="ignore"):
        feasible = _NORMS[project](cos_c, sin_c) <= 1.0
    if feasible:
        assert got[0].tobytes() == cos_c.tobytes() and got[1].tobytes() == sin_c.tobytes()
    again = project(*got)
    assert all(np.abs(a - g).max() <= FEASIBILITY_SLACK for a, g in zip(again, got))


def test_absolute_projection_satisfies_the_simplex_conditions():
    rng = np.random.default_rng(17)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        cos_c = rng.standard_normal(k)
        sin_c = rng.standard_normal(k)
        pa, pb = project_absolute(cos_c, sin_c)
        mags_in = np.hypot(cos_c, sin_c)
        mags_out = np.hypot(pa, pb)
        assert mags_out.sum() <= 1.0 + 1e-9
        if mags_in.sum() <= 1.0:
            np.testing.assert_array_equal(pa, cos_c)
            continue
        assert mags_out.sum() == pytest.approx(1.0, rel=1e-9)
        # per-tone directions survive; shrinkage is uniform over the active set
        active = mags_out > 1e-12
        shrink = (mags_in - mags_out)[active]
        np.testing.assert_allclose(shrink, shrink[0], atol=1e-9)
        assert np.all(mags_in[~active] <= shrink[0] + 1e-9)
        np.testing.assert_allclose(pa[active] * mags_in[active],
                                   cos_c[active] * mags_out[active], atol=1e-9)
        # projecting again changes nothing
        qa, qb = project_absolute(pa, pb)
        np.testing.assert_allclose(qa, pa, atol=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("magnitude", [math.inf, math.nan])
def test_absolute_projection_refuses_magnitudes_it_cannot_place_on_the_simplex(magnitude):
    # no index passed the simplex test, and indexing the empty result raised IndexError
    with pytest.raises(DomainError, match=f"^coefficients must be finite, got a summed magnitude "
                                          f"of {magnitude}$"):
        project_absolute([magnitude, 1.0], [0.0, 0.0])


@pytest.mark.filterwarnings("error")      # no overflow warning from hypot or the sum
@pytest.mark.parametrize("cos_c, sin_c, want_cos, want_sin", [
    ([2.0**52, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]),
    # no index passed the simplex test (DomainError), or the one that passed
    # gave theta = fl(u - 1) = u - 2 and a tone magnitude of 2
    ([1e16, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]),
    ([2.0**53 + 2, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]),
    ([1e16, 1e16], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0]),
    ([-3e20, 1.0, 3e20], [4e20, 0.0, -4e20], [-0.3, 0.0, 0.3], [0.4, 0.0, -0.4]),
    ([3e5, 3e5 - 0.5], [0.0, 0.0], [0.75, 0.25], [0.0, 0.0]),
    # the magnitude sum, or hypot itself, overflowed with a RuntimeWarning
    ([1e308, 1e308], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0]),
    ([1.5e308, -1.5e308, 1e300], [0.0, 0.0, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, 0.0]),
    ([1.7e308], [-1.7e308], [math.sqrt(0.5)], [-math.sqrt(0.5)]),
], ids=["2**52", "1e16", "2**53+2", "tied-1e16", "3-4-5", "3e5", "sum-overflows", "ties-overflow",
        "hypot-overflows"])
def test_absolute_projection_places_magnitudes_of_2_to_the_53_and_above(cos_c, sin_c, want_cos,
                                                                        want_sin):
    qa, qb = project_absolute(np.array(cos_c), np.array(sin_c))
    np.testing.assert_allclose(qa, want_cos, rtol=1e-15, atol=0)
    np.testing.assert_allclose(qb, want_sin, rtol=1e-15, atol=0)


# -------------------------------------------------------------------- optimizer

OPTS_SHORT = OptimizeOptions(max_iters=25)


def test_optimize_descends_and_stays_feasible():
    init = initial_params(F(3, 2), n_tones=5)
    wmap = WeightMap.from_rectangles([ROI_B], 32)
    res = optimize(init, wmap, OPTS_SHORT)
    assert res.loss <= res.loss_trace[0]
    assert res.loss == pytest.approx(float(np.min(res.loss_trace)), rel=1e-15)
    assert np.all(res.norm_trace <= 1.0 + 1e-9)
    assert len(res.loss_trace) == res.iterations + 1
    assert res.params.rms_x <= 1.0 + 1e-9 and res.params.rms_y <= 1.0 + 1e-9


def test_optimize_is_deterministic():
    init = initial_params(2, n_tones=3, y_single_tone=True)
    wmap = WeightMap.from_rectangles([ROI_A], 32)
    r1 = optimize(init, wmap, OPTS_SHORT)
    r2 = optimize(init, wmap, OPTS_SHORT)
    np.testing.assert_array_equal(r1.loss_trace, r2.loss_trace)
    np.testing.assert_array_equal(r1.params.alpha, r2.params.alpha)


def test_optimize_on_a_uniform_map_stays_feasible():
    # no loss target on purpose: a uniform map gives the descent nothing to
    # trade, so the meaningful contract is feasibility plus a finite trace
    init = initial_params(1, n_tones=5)
    res = optimize(init, WeightMap.uniform(32), OPTS_SHORT)
    assert np.all(np.isfinite(res.loss_trace))
    assert np.all(res.norm_trace <= 1.0 + 1e-9)


def test_optimize_with_absolute_constraint():
    init = initial_params(2, n_tones=3)
    wmap = WeightMap.from_rectangles([ROI_B], 32)
    res = optimize(init, wmap, OptimizeOptions(max_iters=15, constraint="absolute"))
    mag_x = float(np.hypot(res.params.alpha, res.params.gamma).sum())
    mag_y = float(np.hypot(res.params.beta, res.params.delta).sum())
    assert mag_x <= 1.0 + 1e-9 and mag_y <= 1.0 + 1e-9
    assert np.all(res.norm_trace <= 1.0 + 1e-9)


def test_optimize_converges_early_when_nothing_improves():
    init = initial_params(1, n_tones=3)
    res = optimize(init, WeightMap.uniform(16), OptimizeOptions(max_iters=200, threshold=3.0))
    # everything occupied from the start: loss 0, patience stops the loop
    assert res.loss == 0.0
    assert res.converged and res.iterations < 200


@pytest.mark.parametrize("patience", [1, 3, 10])
def test_optimize_stops_at_the_first_iterate_without_progress(patience):
    # the rule in full: the best loss up to `patience` iterates ago, against
    # the best loss so far, rescanned from the trace at every iterate
    res = optimize(initial_params(2, n_tones=3), WeightMap.from_rectangles([ROI_B], 16),
                   OptimizeOptions(max_iters=120, patience=patience))
    trace = res.loss_trace.tolist()
    stalled = [i for i in range(patience, len(trace))
               if min(trace[:i - patience + 1]) - min(trace[:i + 1])
               <= modulated.REL_TOL * max(min(trace[:i - patience + 1]), 1e-12)]
    assert res.converged and stalled[0] == res.iterations == len(trace) - 1
    assert res.loss == min(trace)


def test_optimize_stops_when_the_progress_equals_the_tolerance_exactly(monkeypatch):
    # 100000 - 99999 is exactly REL_TOL * 100000 in floats: no more than the tolerance
    assign, losses = modulated._assign, iter([1e5] + [99999.0] * 5)
    assert 1e5 - 99999.0 == modulated.REL_TOL * 1e5
    monkeypatch.setattr(modulated, "_assign", lambda *args: (next(losses), *assign(*args)[1:]))
    res = optimize(initial_params(2, n_tones=3), WeightMap.from_rectangles([ROI_B], 16),
                   OptimizeOptions(max_iters=5, patience=1))
    assert res.converged and res.iterations == 1 and res.loss_trace.tolist() == [1e5, 99999.0]


def test_optimize_takes_the_full_step_when_its_loss_equals_the_current_one(monkeypatch):
    # every loss reads 1.0, so the first candidate ties the current loss and is taken unhalved
    assign, calls = modulated._assign, []
    monkeypatch.setattr(modulated, "_assign", lambda *args: (1.0, *assign(*args)[1:]))
    monkeypatch.setattr(modulated, "_loss_fixed", lambda *args: calls.append(None) or 1.0)
    init, wmap = initial_params(2, n_tones=3), WeightMap.from_rectangles([ROI_B], 16)
    opts = OptimizeOptions(max_iters=1)
    res = optimize(init, wmap, opts)
    grad = gradient(init, wmap, opts.n_samples, 1.0 / wmap.size)
    (a, g), (b, d) = (project_rms(init.alpha - opts.step * grad.alpha,
                                  init.gamma - opts.step * grad.gamma),
                      project_rms(init.beta - opts.step * grad.beta,
                                  init.delta - opts.step * grad.delta))
    assert len(calls) == 1 and res.iterations == 1
    assert res.norm_trace[1] == max(modulated._rms(a, g), modulated._rms(b, d))


def _full_search_assign(x, y, wmap, threshold, hint=None):
    """Reference nearest-sample search over every patch, weighted or not,
    returning what _assign returns: the loss, then the nearest sample and
    the weight (0 where occupied) of each positive patch in row-major order.
    It takes optimize's hint and ignores it, searching every sample."""
    size = wmap.size
    centers = -1.0 + (2.0 * np.arange(size) + 1.0) / size
    dx2 = (centers[:, None] - x[None, :]) ** 2
    dy2 = (centers[:, None] - y[None, :]) ** 2
    n_idx = np.empty((size, size), dtype=np.intp)
    best = np.empty((size, size))
    for ix in range(size):
        d2 = dx2[ix][None, :] + dy2
        n_idx[ix] = np.argmin(d2, axis=1)
        best[ix] = d2[np.arange(size), n_idx[ix]]
    occupied = best < threshold * threshold
    wbar = np.where(occupied, 0.0, wmap.w)
    positive = np.flatnonzero(wmap.w > 0)
    return float(np.sum(wbar * best)), n_idx.take(positive), wbar.take(positive)


@pytest.mark.parametrize("wmap", [WeightMap.from_rectangles([ROI_B], 32), WeightMap.uniform(32)],
                         ids=["rectangle", "fully-weighted"])
def test_optimize_is_bit_identical_to_a_full_nearest_sample_search(wmap, monkeypatch):
    init = initial_params(2, n_tones=5)
    opts = OptimizeOptions(max_iters=60)
    weighted_only = optimize(init, wmap, opts)
    monkeypatch.setattr(modulated, "_assign", _full_search_assign)
    full = optimize(init, wmap, opts)
    assert weighted_only.loss_trace.tobytes() == full.loss_trace.tobytes()
    assert weighted_only.norm_trace.tobytes() == full.norm_trace.tobytes()
    for name in ("alpha", "gamma", "beta", "delta"):
        assert getattr(weighted_only.params, name).tobytes() == getattr(full.params, name).tobytes()
    assert (weighted_only.iterations, weighted_only.converged) == (full.iterations, full.converged)


def test_optimize_hints_each_search_with_the_previous_assignment(monkeypatch):
    assign, calls = modulated._assign, []

    def spy(x, y, wmap, threshold, hint=None):
        loss, idx, wbar = assign(x, y, wmap, threshold, hint)
        calls.append((hint, idx))
        return loss, idx, wbar
    monkeypatch.setattr(modulated, "_assign", spy)
    res = optimize(initial_params(2, n_tones=3), WeightMap.from_rectangles([ROI_B], 16),
                   OptimizeOptions(max_iters=5, patience=6))
    assert len(calls) == res.iterations + 1 == 6 and calls[0][0] is None
    assert all(hint is idx for (hint, _), (_, idx) in zip(calls[1:], calls))


@pytest.mark.parametrize("projection, message", [
    (lambda c, s: (c * math.nan, s), "norm nan$"),
    (lambda c, s: (c + 1.0, s), r"norm 2\.\d+$"),
], ids=["non-finite", "outside-the-ball"])
def test_optimize_rejects_a_candidate_that_fails_the_coefficient_check(projection, message,
                                                                       monkeypatch):
    monkeypatch.setitem(modulated._PROJECTIONS, "rms", projection)
    init, wmap = initial_params(2, n_tones=3), WeightMap.from_rectangles([ROI_B], 16)
    with pytest.raises(OptimizationFailed, match="^iterate 1 left the constraint set, " + message
                       ) as err:
        optimize(init, wmap, OptimizeOptions(max_iters=3))
    assert err.value.trace.tolist() == [objective(synthesize_modulated(init), wmap, 1 / 16)[0]]


def _onto_rms_sphere(radius):
    """A stand-in RMS projection that puts every candidate at this RMS."""
    def project(cos_c, sin_c):
        scale = radius / modulated._rms(cos_c, sin_c)
        return cos_c * scale, sin_c * scale
    return project


def test_optimize_takes_an_iterate_within_the_slack_and_refuses_one_beyond(monkeypatch):
    # the iterate check is the norm optimize records; a bound of 1 + 1e-6
    # would take the iterate at 1 + 2 * FEASIBILITY_SLACK
    init, wmap = initial_params(2, n_tones=3), WeightMap.from_rectangles([ROI_B], 16)
    opts = OptimizeOptions(max_iters=3)
    monkeypatch.setitem(modulated._PROJECTIONS, "rms", _onto_rms_sphere(1 + FEASIBILITY_SLACK / 2))
    res = optimize(init, wmap, opts)
    assert len(res.norm_trace) == 4
    np.testing.assert_allclose(res.norm_trace[1:], 1 + FEASIBILITY_SLACK / 2, rtol=0, atol=1e-15)
    monkeypatch.setitem(modulated._PROJECTIONS, "rms", _onto_rms_sphere(1 + 2 * FEASIBILITY_SLACK))
    with pytest.raises(OptimizationFailed, match="^iterate 1 left the constraint set, norm 1.0"
                       ) as err:
        optimize(init, wmap, opts)
    assert len(err.value.trace) == 1


@pytest.mark.filterwarnings("error")      # the overflowing steps warn nothing
def test_optimize_fails_with_its_trace_when_every_halved_step_leaves_the_float_range():
    # the non-finite last candidate reached the coefficient check, which raised
    # InvalidParams "alpha must be a finite 1-D array"
    with pytest.raises(OptimizationFailed, match="^iterate 1 left the constraint set, norm inf$"
                       ) as err:
        optimize(initial_params(2, m=7), WeightMap(np.full((8, 8), 1e307)),
                 OptimizeOptions(step=1e4))
    trace = err.value.trace
    assert len(trace) == 1 and np.all(np.isfinite(trace))


@pytest.mark.parametrize("x_pair, y_pair, want", [
    (([0.3], [0.4]), ([0.6, 0.1], [0.0, 0.0]), 0.6 + 0.1),   # the y axis sums larger
    (([0.6, 0.1], [0.0, 0.0]), ([0.3], [0.4]), 0.6 + 0.1),
])
def test_absolute_constraint_norm_is_the_larger_axis_sum(x_pair, y_pair, want):
    # each pair's RMS is within 1, so it can start a solve; iterate 0's norm is recorded
    init = ModulatedParams(*x_pair, *y_pair, nx=tuple(range(26, 26 + len(x_pair[0]))),
                           ny=tuple(range(13, 13 + len(y_pair[0]))), L=2, m=7,
                           config=ScannerConfig(fx_res=2.0))
    res = optimize(init, WeightMap.from_rectangles([ROI_B], 8),
                   OptimizeOptions(max_iters=0, constraint="absolute"))
    assert res.norm_trace.tolist() == [want]


def test_each_constraint_has_one_norm_and_one_projection():
    assert modulated._NORMS.keys() == modulated._PROJECTIONS.keys()
    for name, norm in modulated._NORMS.items():     # each projection lands on its norm's ball
        got = modulated._PROJECTIONS[name](np.array([3.0, 1.0]), np.array([4.0, 0.0]))
        assert norm(*got) == pytest.approx(1.0, rel=1e-12)


def test_optimize_starts_an_absolute_warm_start_from_outside_the_constraint_set():
    # iterate 0 is not checked; checking it too would refuse this init, whose
    # summed tone magnitude is 2.2 (its RMS, 0.98, is within the ball)
    init = initial_params(2, n_tones=5).with_coefficients(alpha=np.full(5, 0.44),
                                                          gamma=np.zeros(5))
    res = optimize(init, WeightMap.from_rectangles([ROI_B], 32),
                   OptimizeOptions(constraint="absolute", max_iters=20))
    assert res.norm_trace[0] == pytest.approx(2.2, rel=1e-15)
    assert len(res.norm_trace) > 1 and np.all(res.norm_trace[1:] <= 1.0 + FEASIBILITY_SLACK)


def test_optimize_input_validation():
    init = initial_params(1, n_tones=3)
    with pytest.raises(InvalidParams):
        optimize(init, WeightMap(np.zeros((8, 8))))
    with pytest.raises(DomainError):
        optimize(init, WeightMap.uniform(8), OptimizeOptions(constraint="clip"))
    with pytest.raises(DomainError):
        optimize(init, WeightMap.uniform(8), OptimizeOptions(threshold=-0.2))


@pytest.mark.parametrize("options", [
    {"n_samples": 1}, {"n_samples": 0}, {"step": 0.0}, {"step": -1.0}, {"step": math.nan},
    {"step": math.inf}, {"threshold": math.nan}, {"threshold": math.inf}, {"max_iters": -1},
    {"patience": 0}, {"max_iters": MAX_ITERS + 1}, {"n_samples": MAX_SAMPLES + 1},
], ids=lambda options: "-".join(f"{k}={v}" for k, v in options.items()))
def test_optimize_options_check_their_own_fields(options):
    with pytest.raises(DomainError, match=next(iter(options))):
        OptimizeOptions(**options)


def _params_with_nx(first):
    p = initial_params(2, n_tones=3)                 # nx = (26, 28, 30)
    return ModulatedParams(p.alpha, p.gamma, p.beta, p.delta, nx=(first, 28, 30), ny=p.ny,
                           L=p.L, m=p.m, config=p.config)


_DRIFT = DriftScenario(drift_fn=lambda t: 0.0 * t, frame_time=6.4)
_COUNT_ARGUMENTS = [   # (name, call with the count, an integral float it accepts, error)
    ("n_samples", lambda v: sample_unmodulated(design_unmodulated(F(3, 2), 7),
                                               ScannerConfig.normalized(1.5), 0, v), 50.0,
     DomainError),
    ("n_samples", lambda v: synthesize_modulated(initial_params(2), v), 50.0, DomainError),
    ("m", lambda v: default_tone_indices(2, 5, v), 7.0, InvalidParams),
    ("n_grid", lambda v: fill_factor(reference_pattern(2, n_samples=50), v), 8.0, DomainError),
    ("nx", _params_with_nx, 26.0, InvalidParams),
    ("max_iters", lambda v: OptimizeOptions(max_iters=v), 500.0, DomainError),
    ("patience", lambda v: OptimizeOptions(patience=v), 3.0, DomainError),
    ("seed", lambda v: simulate_drift_control(_DRIFT, ScannerConfig(2.0), "x", 2.0, 64.0, v), 3.0,
     DomainError),
    ("L", lambda v: replace(initial_params(2, n_tones=3), L=v), 2.0, InvalidParams),
    ("m", lambda v: replace(initial_params(2, n_tones=3), m=v), 7.0, InvalidParams),
    ("frame_index", lambda v: sample_unmodulated(design_unmodulated(F(3, 2), 7),
                                                 ScannerConfig.normalized(1.5), v, 50), 1.0,
     DomainError),
    ("size", WeightMap.uniform, 8.0, DomainError),
    ("m", lambda v: sweep_designs([F(3, 2)], [v], n_samples=50, n_grid=8), 7.0, DomainError),
    ("m", lambda v: design_unmodulated(F(3, 2), v), 7.0, DomainError),
    ("m", lambda v: design_unmodulated(F(3, 2), v), np.int64(7), DomainError),
    ("k", lambda v: case1_criterion(v, 7), 41.0, DomainError),
]


@pytest.mark.parametrize("name, call, whole, error", _COUNT_ARGUMENTS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(_COUNT_ARGUMENTS)])
def test_count_arguments_refuse_a_bool_or_a_fraction(name, call, whole, error):
    # each of these truncated 2.5 to 2, read True as 1, or failed later with
    # an IndexError or TypeError
    for value in (2.5, True):
        with pytest.raises(error, match=f"^{name} must be an integer, got {value!r}$"):
            call(value)
    call(whole)               # an integral float (or a numpy integer) reads as its integer


def _fail(*args, **kwargs):
    raise AssertionError("allocated before the bound was checked")


@pytest.mark.parametrize("call", [
    lambda: WeightMap.uniform(MAX_GRID + 1),
    lambda: WeightMap.from_rectangles([ROI_B], MAX_GRID + 1),
], ids=["uniform", "from_rectangles"])
def test_weight_map_size_is_bounded_before_allocating(call, monkeypatch):
    monkeypatch.setattr(modulated.np, "full", _fail)
    monkeypatch.setattr(modulated.np, "zeros", _fail)
    with pytest.raises(DomainError, match=f"^size must be between 1 and {MAX_GRID}, got "):
        call()


_WIDE = WeightMap.from_rectangles([ROI_B], 64)
_LONG = modulated.MAX_SEARCH // 64 + 1           # samples that take a 64-side search past the bound


@pytest.mark.parametrize("call", [
    lambda: objective(SampledPattern(t=np.arange(_LONG), x=np.zeros(_LONG), y=np.zeros(_LONG)),
                      _WIDE, 0.1),
    lambda: gradient(initial_params(2, n_tones=3), _WIDE, _LONG, 0.1),
    lambda: optimize(initial_params(2, n_tones=3), _WIDE, OptimizeOptions(n_samples=_LONG)),
], ids=["objective", "gradient", "optimize"])
def test_search_size_is_bounded_before_the_search(call, monkeypatch):
    monkeypatch.setattr(modulated, "_assign", _fail)
    monkeypatch.setattr(modulated, "_bases", _fail)
    with pytest.raises(DomainError, match=f"64 x {_LONG} samples exceeds {modulated.MAX_SEARCH}"):
        call()
    assert 64 * 500 * 100 < modulated.MAX_SEARCH      # the optimize benchmark's 64-side map


@pytest.mark.filterwarnings("error")      # numpy warns nothing on the way to the error
@pytest.mark.parametrize("call", [
    lambda w: objective(synthesize_modulated(initial_params(2)), w, 0.1),
    lambda w: gradient(initial_params(2), w, 200, 0.1),
], ids=["objective", "gradient"])
def test_objective_and_gradient_refuse_a_non_finite_result(call):
    # both returned inf or nan (with overflow warnings) for weights near the float maximum
    with pytest.raises(DomainError, match="not finite"):
        call(WeightMap(np.full((8, 8), 1e308)))


@pytest.mark.filterwarnings("error")      # no numpy overflow warning reaches stderr
@pytest.mark.parametrize("weight, step", [(1e308, 0.05)], ids=["1e+308"])
def test_optimize_fails_with_its_trace_when_the_loss_overflows(weight, step):
    # 1e308: the very first loss overflows
    with pytest.raises(OptimizationFailed, match="non-finite") as err:
        optimize(initial_params(2, m=7), WeightMap(np.full((8, 8), weight)),
                 OptimizeOptions(step=step))
    trace = err.value.trace
    assert not math.isfinite(trace[-1]) and np.all(np.isfinite(trace[:-1]))


def test_optimize_fails_with_its_trace_when_a_later_loss_overflows(monkeypatch):
    assign = modulated._assign
    calls = []

    def overflow_on_the_third_call(*args):
        calls.append(None)
        loss, idx, wbar = assign(*args)
        return (math.inf if len(calls) == 3 else loss), idx, wbar
    monkeypatch.setattr(modulated, "_assign", overflow_on_the_third_call)
    with pytest.raises(OptimizationFailed, match="objective became non-finite") as err:
        optimize(initial_params(2, n_tones=3), WeightMap.from_rectangles([ROI_B], 16),
                 OptimizeOptions(max_iters=5))
    trace = err.value.trace
    assert len(trace) == 3 and trace[-1] == math.inf and np.all(np.isfinite(trace[:-1]))


@pytest.mark.filterwarnings("error")
def test_optimize_takes_a_long_step_whose_candidate_rms_overflows():
    # the RMS projection turned such a candidate into zeros, whose loss then
    # overflowed: optimize raised OptimizationFailed on its second iterate
    res = optimize(initial_params(2, m=7), WeightMap(np.full((8, 8), 1e307)),
                   OptimizeOptions(step=1e3))
    assert np.all(np.isfinite(res.loss_trace)) and len(res.loss_trace) > 3
    assert np.all(res.norm_trace <= 1.0 + FEASIBILITY_SLACK)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step", [1e20, 1e300, 1.7e308])
def test_optimize_takes_any_finite_step_under_the_absolute_constraint(step):
    # the absolute projection refused every candidate whose largest tone
    # magnitude was 2**53 or more, so these steps raised DomainError where
    # the rms constraint ran; each candidate now puts the budget on its largest tone
    res = optimize(initial_params(2, n_tones=3), WeightMap.from_rectangles([ROI_B], 16),
                   OptimizeOptions(step=step, constraint="absolute", max_iters=20))
    assert np.all(np.isfinite(res.loss_trace)) and len(res.loss_trace) > 2
    assert np.all(res.norm_trace[1:] <= 1.0 + FEASIBILITY_SLACK)


@pytest.mark.filterwarnings("error")      # the overflowing steps warn nothing
def test_optimize_backtracks_from_a_step_that_overflows_the_coefficients():
    # step * gradient leaves the float range; the candidate is non-finite, so
    # it fails the line search and the halved steps are tried
    res = optimize(initial_params(2, n_tones=3), WeightMap.from_rectangles([ROI_B], 16),
                   OptimizeOptions(step=1e308, max_iters=3))
    assert np.all(np.isfinite(res.loss_trace)) and len(res.loss_trace) == 4
    assert np.all(res.norm_trace <= 1.0 + 1e-9)


def _gradient_with_a_nan_in(part):
    """_gradient_fixed with the last entry of one coefficient's part of the
    stacked gradient made NaN (part 0 alpha, ..., 3 delta)."""
    gradient_fixed = modulated._gradient_fixed

    def nan_gradient(x, y, wmap, idx, wbar, bxc, *bases):
        grad = gradient_fixed(x, y, wmap, idx, wbar, bxc, *bases)
        modulated._split(grad, bxc.shape[1])[part][-1] = math.nan
        return grad
    return nan_gradient


@pytest.mark.parametrize("part", range(4), ids=modulated._COEFFICIENTS)
def test_gradient_refuses_a_non_finite_entry_in_any_coefficient(part, monkeypatch):
    monkeypatch.setattr(modulated, "_gradient_fixed", _gradient_with_a_nan_in(part))
    with pytest.raises(DomainError, match="^gradient is not finite$"):
        gradient(initial_params(2, n_tones=3), WeightMap.from_rectangles([ROI_B], 16), 200, 1 / 16)


@pytest.mark.parametrize("part", range(4), ids=modulated._COEFFICIENTS)
def test_optimize_fails_with_its_trace_when_the_gradient_is_not_finite(part, monkeypatch):
    monkeypatch.setattr(modulated, "_gradient_fixed", _gradient_with_a_nan_in(part))
    init = initial_params(2, n_tones=3)
    wmap = WeightMap.from_rectangles([ROI_B], 16)
    with pytest.raises(OptimizationFailed, match="gradient became non-finite") as err:
        optimize(init, wmap, OptimizeOptions(max_iters=3))
    assert err.value.trace.tolist() == [objective(synthesize_modulated(init), wmap, 1 / 16)[0]]
