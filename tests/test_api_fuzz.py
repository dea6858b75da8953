"""API fuzz: every exported constructor and function, given one scalar
argument from an edge set and every other argument valid, returns a checked
value or raises a LissscanError; no other exception and no RuntimeWarning.

A completeness test reads every exported signature and dataclass field:
each scalar argument needs a site here, and each site an argument.

Result records the package builds itself (CoverageReport, SweepRow,
PeriodReport, DriftTrace, OptimizeResult, Assignment, ModulatedGradient) and
functions that take no scalar argument are not called. Array arguments stay
valid; their checks have tests of their own.
"""

import dataclasses
import enum
import inspect
import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lissscan
from lissscan import (ROI_B, DriftScenario, ModulatedParams, MultitoneState, OptimizeOptions,
                      QuadraturePair, SampledPattern, ScannerConfig, UnmodulatedDesign, WeightMap,
                      as_fraction, baseline_repeating_design, case1_criterion,
                      default_tone_indices, design_unmodulated, fill_factor, gradient,
                      initial_params, objective, optimize, phase_tolerance_sweep, plant_phase_lag,
                      polar_coefficients, reference_pattern, repeat_period,
                      resonance_offset_for_phase_shift, roi_density, sample_unmodulated,
                      simulate_drift_control, solve_multitone, sweep_designs,
                      synthesize_modulated, synthesize_quadrature, transfer_amplitude,
                      wrap_phase)
from lissscan.design import DesignCase
from lissscan.errors import DomainError, InvalidParams, LissscanError

EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308, True, False, np.True_, 2.5]

CFG = ScannerConfig.normalized(1.5)
DESIGN = design_unmodulated(F(3, 2), 7)
PATTERN = sample_unmodulated(DESIGN, CFG, 0, 50)
PARAMS = initial_params(2, n_tones=3)
WMAP = WeightMap.from_rectangles([ROI_B], 8)
OMEGAS = tuple(2.0 * math.pi * f for f in (13 / 14, 1.0, 15 / 14))
SCENARIO = DriftScenario(drift_fn=lambda t: 0.0 * t, frame_time=6.4)
SAMPLES = synthesize_quadrature(MultitoneState(OMEGAS, (0.3, 0.5, 0.7), (0.1, -0.2, 0.3)),
                                np.array([0.0, 3.5, 7.0]))


def _params(**fields):
    return dataclasses.replace(PARAMS, **fields)


# site -> call with the drawn value in one scalar argument
SITES = {
    "ScannerConfig.fx_res": lambda v: ScannerConfig(fx_res=v),
    "ScannerConfig.fy_res": lambda v: ScannerConfig(1.5, fy_res=v),
    "ScannerConfig.qx": lambda v: ScannerConfig(1.5, qx=v),
    "ScannerConfig.qy": lambda v: ScannerConfig(1.5, qy=v),
    "ScannerConfig.normalized.r": lambda v: ScannerConfig.normalized(v),
    "transfer_amplitude.f": lambda v: transfer_amplitude(CFG, "x", v),
    "as_fraction": as_fraction,
    "UnmodulatedDesign.fx": lambda v: UnmodulatedDesign(fx=v, phix=0.0, m=7),
    "UnmodulatedDesign.phix": lambda v: UnmodulatedDesign(fx=F(3, 2), phix=v, m=7),
    "UnmodulatedDesign.m": lambda v: UnmodulatedDesign(fx=F(3, 2), phix=0.0, m=v),
    "UnmodulatedDesign.fy": lambda v: UnmodulatedDesign(fx=F(3, 2), phix=0.0, m=7, fy=v),
    "UnmodulatedDesign.phiy": lambda v: UnmodulatedDesign(fx=F(3, 2), phix=0.0, m=7, phiy=v),
    "UnmodulatedDesign.k": lambda v: dataclasses.replace(DESIGN, k=v),
    "case1_criterion.k": lambda v: case1_criterion(v, 7),
    "case1_criterion.m": lambda v: case1_criterion(41, v),
    "design_unmodulated.r": lambda v: design_unmodulated(v, 7),
    "design_unmodulated.m": lambda v: design_unmodulated(F(3, 2), v),
    "baseline_repeating_design.r": lambda v: baseline_repeating_design(v, 7),
    "baseline_repeating_design.m": lambda v: baseline_repeating_design(F(3, 2), v),
    "repeat_period.fx": lambda v: repeat_period(v, 1),
    "repeat_period.fy": lambda v: repeat_period(F(3, 2), v),
    "repeat_period.phix": lambda v: repeat_period(F(3, 2), 1, v),
    "repeat_period.phiy": lambda v: repeat_period(F(3, 2), 1, 0.0, v),
    "SampledPattern.frame_len": lambda v: SampledPattern(t=[0, 1], x=[0, 1], y=[0, 1],
                                                         frame_len=v),
    "SampledPattern.frames": lambda v: SampledPattern(t=[0, 1], x=[0, 1], y=[0, 1],
                                                      frame_len=2.0, frames=v),
    "sample_unmodulated.frame_index": lambda v: sample_unmodulated(DESIGN, CFG, v, 50),
    "sample_unmodulated.n_samples": lambda v: sample_unmodulated(DESIGN, CFG, 0, v),
    "sample_unmodulated.amp_x": lambda v: sample_unmodulated(DESIGN, CFG, 0, 50, amp_x=v),
    "sample_unmodulated.amp_y": lambda v: sample_unmodulated(DESIGN, CFG, 0, 50, amp_y=v),
    "fill_factor.n_grid": lambda v: fill_factor(PATTERN, v),
    "sweep_designs.r": lambda v: sweep_designs([v], [7], n_samples=50, n_grid=8),
    "sweep_designs.m": lambda v: sweep_designs([F(3, 2)], [v], n_samples=50, n_grid=8),
    "sweep_designs.n_samples": lambda v: sweep_designs([F(3, 2)], [7], n_samples=v, n_grid=8),
    "sweep_designs.n_grid": lambda v: sweep_designs([F(3, 2)], [7], n_samples=50, n_grid=v),
    "sweep_designs.workers": lambda v: sweep_designs([F(3, 2)], [7], n_samples=50, n_grid=8,
                                                     workers=v),   # one task: never a pool
    "phase_tolerance_sweep.delta": lambda v: phase_tolerance_sweep(DESIGN, CFG, [v]),
    "WeightMap.uniform.size": lambda v: WeightMap.uniform(v),
    "WeightMap.from_rectangles.size": lambda v: WeightMap.from_rectangles([ROI_B], v),
    "WeightMap.from_rectangles.xmin": lambda v: WeightMap.from_rectangles([(v, 0.9, 0.2, 0.8)]),
    "WeightMap.from_rectangles.ymax": lambda v: WeightMap.from_rectangles([(0.2, 0.9, 0.2, v)]),
    "ModulatedParams.nx": lambda v: _params(nx=(v, 28, 30)),
    "ModulatedParams.ny": lambda v: _params(ny=(v, 14, 15)),
    "ModulatedParams.L": lambda v: _params(L=v),
    "ModulatedParams.m": lambda v: _params(m=v),
    "default_tone_indices.r": lambda v: default_tone_indices(v),
    "default_tone_indices.n_tones": lambda v: default_tone_indices(2, v),
    "default_tone_indices.m": lambda v: default_tone_indices(2, 5, v),
    "initial_params.r": lambda v: initial_params(v, n_tones=3),
    "initial_params.m": lambda v: initial_params(2, v, 3),
    "initial_params.n_tones": lambda v: initial_params(2, n_tones=v),
    "initial_params.qx": lambda v: initial_params(2, n_tones=3, qx=v),
    "initial_params.qy": lambda v: initial_params(2, n_tones=3, qy=v),
    "synthesize_modulated.n_samples": lambda v: synthesize_modulated(PARAMS, v),
    "objective.threshold": lambda v: objective(PATTERN, WMAP, v),
    "gradient.n_samples": lambda v: gradient(PARAMS, WMAP, v, 0.1),
    "gradient.threshold": lambda v: gradient(PARAMS, WMAP, 50, v),
    "OptimizeOptions.max_iters": lambda v: OptimizeOptions(max_iters=v),
    "OptimizeOptions.step": lambda v: OptimizeOptions(step=v),
    "OptimizeOptions.threshold": lambda v: OptimizeOptions(threshold=v),
    "OptimizeOptions.n_samples": lambda v: OptimizeOptions(n_samples=v),
    "OptimizeOptions.patience": lambda v: OptimizeOptions(patience=v),
    "optimize.step": lambda v: optimize(PARAMS, WMAP, OptimizeOptions(step=v, max_iters=2,
                                                                       n_samples=50)),
    "optimize.threshold": lambda v: optimize(PARAMS, WMAP, OptimizeOptions(
        threshold=v, max_iters=2, n_samples=50)),
    "polar_coefficients.amplitudes": lambda v: polar_coefficients(v, 0.3),
    "polar_coefficients.phases_rad": lambda v: polar_coefficients(0.5, v),
    "roi_density.xmin": lambda v: roi_density(PATTERN, [(v, 0.9, 0.2, 0.8)]),
    "roi_density.ymax": lambda v: roi_density(PATTERN, [(0.2, 0.9, 0.2, v)]),
    "reference_pattern.r": lambda v: reference_pattern(v, n_samples=50),
    "reference_pattern.m": lambda v: reference_pattern(2, v, n_samples=50),
    "reference_pattern.n_samples": lambda v: reference_pattern(2, n_samples=v),
    "wrap_phase": wrap_phase,
    "QuadraturePair.x": lambda v: QuadraturePair(v, 1.0),
    "QuadraturePair.xq": lambda v: QuadraturePair(1.0, v),
    "MultitoneState.omegas": lambda v: MultitoneState((v, 2.0, 3.0), (1, 1, 1), (0, 0, 0)),
    "MultitoneState.amps": lambda v: MultitoneState((1.0, 2.0, 3.0), (1, v, 1), (0, 0, 0)),
    "MultitoneState.phases": lambda v: MultitoneState((1.0, 2.0, 3.0), (1, 1, 1), (0, 0, v)),
    "synthesize_quadrature.t": lambda v: synthesize_quadrature(
        MultitoneState(OMEGAS, (0.3, 0.5, 0.7), (0.1, -0.2, 0.3)), v),
    "solve_multitone.frame_time": lambda v: solve_multitone(*SAMPLES, OMEGAS, v),
    "plant_phase_lag.f_drive": lambda v: plant_phase_lag(v, 2.0, 20.0),
    "plant_phase_lag.f_res": lambda v: plant_phase_lag(2.0, v, 20.0),
    "plant_phase_lag.q": lambda v: plant_phase_lag(2.0, 2.0, v),
    "resonance_offset_for_phase_shift.f_drive": lambda v: resonance_offset_for_phase_shift(
        v, 2.0, 20.0, 5.0),
    "resonance_offset_for_phase_shift.f_res": lambda v: resonance_offset_for_phase_shift(
        2.0, v, 20.0, 5.0),
    "resonance_offset_for_phase_shift.q": lambda v: resonance_offset_for_phase_shift(
        2.0, 2.0, v, 5.0),
    "resonance_offset_for_phase_shift.delta_deg": lambda v: resonance_offset_for_phase_shift(
        2.0, 2.0, 20.0, v),
    "DriftScenario.frame_time": lambda v: DriftScenario(lambda t: 0.0 * t, v),
    "DriftScenario.measurement_noise_deg": lambda v: DriftScenario(lambda t: 0.0 * t, 6.4,
                                                                   measurement_noise_deg=v),
    "simulate_drift_control.f_drive": lambda v: simulate_drift_control(SCENARIO, CFG, "x", v,
                                                                       64.0),
    "simulate_drift_control.duration": lambda v: simulate_drift_control(SCENARIO, CFG, "x",
                                                                        1.5, v),
    "simulate_drift_control.seed": lambda v: simulate_drift_control(SCENARIO, CFG, "x", 1.5,
                                                                    64.0, v),
}
# array helpers that pass a NaN through, as their docstrings say
PASS_THROUGH = {"wrap_phase", "polar_coefficients.amplitudes", "polar_coefficients.phases_rad",
                "synthesize_quadrature.t"}

# Every argument that is not one scalar number, so has no site: these
# names (the package's records, paths, axis names) wherever they appear,
# and the arrays, strings, flags and callables below. A site may fuzz one
# element of an array argument or one field of a record argument (PART_SITES).
NOT_SCALAR_NAMES = {"config", "design", "pattern", "wmap", "params", "init", "opts", "scenario",
                    "state", "pair", "data", "path", "axis"}
NOT_SCALAR = set("""
    DriftScenario.drift_fn DriftScenario.control_enabled OptimizeOptions.constraint
    UnmodulatedDesign.case UnmodulatedDesign.note initial_params.y_single_tone
    ModulatedParams.alpha ModulatedParams.gamma ModulatedParams.beta ModulatedParams.delta
    ModulatedParams.with_coefficients.alpha ModulatedParams.with_coefficients.gamma
    ModulatedParams.with_coefficients.beta ModulatedParams.with_coefficients.delta
    SampledPattern.t SampledPattern.x SampledPattern.y WeightMap.w WeightMap.from_rectangles.rois
    roi_density.rois phase_tolerance_sweep.deltas sweep_designs.r_grid sweep_designs.m_set
    project_rms.cos_coef project_rms.sin_coef project_absolute.cos_coef project_absolute.sin_coef
    solve_multitone.x_samples solve_multitone.xq_samples solve_multitone.omegas
""".split())
PART_SITES = {
    "sweep_designs.r": "sweep_designs.r_grid", "sweep_designs.m": "sweep_designs.m_set",
    "phase_tolerance_sweep.delta": "phase_tolerance_sweep.deltas",
    "roi_density.xmin": "roi_density.rois", "roi_density.ymax": "roi_density.rois",
    "WeightMap.from_rectangles.xmin": "WeightMap.from_rectangles.rois",
    "WeightMap.from_rectangles.ymax": "WeightMap.from_rectangles.rois",
    "optimize.step": "optimize.opts", "optimize.threshold": "optimize.opts",
}
# result records the package builds itself (see the module docstring)
RESULTS = {"Assignment", "CoverageReport", "DriftTrace", "ModulatedGradient", "OptimizeResult",
           "PeriodReport", "SweepRow"}


def _checked(value) -> bool:
    """Whether every number inside value (floats, arrays, tuples, lists and
    dataclass fields, recursively) is finite."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(map(_checked, value))
    if dataclasses.is_dataclass(value):
        return all(_checked(getattr(value, f.name)) for f in dataclasses.fields(value))
    return True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("site", sorted(SITES))
@settings(max_examples=len(EDGES) * 3, deadline=None)
@given(value=st.sampled_from(EDGES))
def test_an_edge_value_gives_a_checked_result_or_a_lissscan_error(site, value):
    try:
        result = SITES[site](value)
    except LissscanError:
        return
    if site in PASS_THROUGH:
        return
    assert _checked(result), f"{site}({value!r}) returned {result!r}"
    # a boolean is never a number; a sweep flags the cells it could not score instead
    assert not isinstance(value, (bool, np.bool_)) or (
        site.startswith("sweep_designs.") and all(row.status != "ok" for row in result)), \
        f"{site} read {value!r} as a number"


# non-numeric or out-of-float-range arguments that reached a raw exception
MALFORMED = {
    "UnmodulatedDesign.case": (lambda: UnmodulatedDesign(fx=F(41, 28), phix=0.0, m=7,
                                                         case="bogus", k=41), DomainError),
    "roi_density.rect": (lambda: roi_density(PATTERN, [5.0]), DomainError),
    "roi_density.rois": (lambda: roi_density(PATTERN, 5.0), DomainError),
    "WeightMap.from_rectangles.rect": (lambda: WeightMap.from_rectangles([5.0], 32), DomainError),
    "WeightMap.from_rectangles.rois": (lambda: WeightMap.from_rectangles(None), DomainError),
    "ModulatedParams.nx": (lambda: _params(nx=(10**400, 10**401, 10**402)), InvalidParams),
    "ModulatedParams.ny": (lambda: _params(ny=(13, 14, 2**1024)), InvalidParams),
    # an int too long for str() raised ValueError from the message itself, and
    # an unhashable constraint raised TypeError from the dict lookup
    "UnmodulatedDesign.case.huge": (lambda: UnmodulatedDesign(fx=F(41, 28), phix=0.0, m=7,
                                                              case=10**5000, k=41), DomainError),
    "ScannerConfig.axis": (lambda: CFG.axis(10**5000), DomainError),
    "OptimizeOptions.constraint": (lambda: OptimizeOptions(constraint=[1]), DomainError),
    "OptimizeOptions.constraint.huge": (lambda: OptimizeOptions(constraint=10**5000), DomainError),
    "DriftScenario.control_enabled": (lambda: DriftScenario(lambda t: 0.0 * t, 6.4,
                                                            control_enabled=10**5000), DomainError),
}


@pytest.mark.parametrize("site", sorted(MALFORMED))
def test_a_malformed_argument_raises_the_sites_error(site):
    call, error = MALFORMED[site]
    with pytest.raises(error):
        call()


def test_the_largest_tone_index_and_a_case_name_are_taken():
    largest = _params(nx=(26, 28, int(sys.float_info.max)))
    assert np.isfinite(largest.fx_tones).all()
    design = UnmodulatedDesign(fx=F(41, 28), phix=0.0, m=7, case="Case1", k=41)
    assert design.case is DesignCase.CASE1 and design.to_dict()["case"] == "Case1"


def _arguments() -> set[str]:
    """Every argument of an exported function, and every field and public-method
    argument of an exported class that a caller builds, as "callable.argument"."""
    found = set()
    for name in lissscan.__all__:
        obj = getattr(lissscan, name)
        if not callable(obj) or name in RESULTS or (
                inspect.isclass(obj) and issubclass(obj, (Exception, enum.Enum))):
            continue
        if not inspect.isclass(obj):
            found |= {f"{name}.{arg}" for arg in inspect.signature(obj).parameters}
            continue
        found |= {f"{name}.{field.name}" for field in dataclasses.fields(obj)}
        for method, fn in vars(obj).items():
            fn = getattr(fn, "__func__", fn)        # a classmethod's function
            if not method.startswith("_") and inspect.isfunction(fn):
                args = list(inspect.signature(fn).parameters)[1:]     # past self or cls
                found |= {f"{name}.{method}.{arg}" for arg in args}
    return found


def test_every_scalar_argument_has_a_site_and_every_site_an_argument():
    arguments = _arguments()
    # a site without a dot is a one-argument function and stands for that argument
    sited = {site if "." in site else
             f"{site}.{next(iter(inspect.signature(getattr(lissscan, site)).parameters))}"
             for site in SITES}
    unfuzzed = {arg for arg in arguments - sited - NOT_SCALAR
                if arg.rsplit(".", 1)[1] not in NOT_SCALAR_NAMES}
    assert not unfuzzed, f"scalar arguments with no site: {sorted(unfuzzed)}"
    stale = {site for site in sited - arguments if PART_SITES.get(site) not in arguments}
    assert not stale, f"sites of no argument: {sorted(stale)}"
    assert NOT_SCALAR <= arguments, f"listed but gone: {sorted(NOT_SCALAR - arguments)}"


def test_a_refused_number_of_any_length_gives_a_short_message():
    # nx = 10**400 printed all 401 digits, and 10**5000, past the interpreter's
    # digit limit for str(), raised ValueError from the message itself
    with pytest.raises(InvalidParams, match=r"got 1\d{63}\.\.\. \(401 characters\)$") as err:
        _params(nx=(10**400, 28, 30))
    assert len(str(err.value)) < 160
    with pytest.raises(InvalidParams, match="got an integer of 16610 bits$"):
        _params(nx=(10**5000, 28, 30))
    with pytest.raises(DomainError, match="got an integer of 16610 bits$"):
        as_fraction(10**5000)
