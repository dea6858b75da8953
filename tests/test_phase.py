"""Quadrature phase recovery, three-tone separation, and drift control."""

import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lissscan import (ROI_B, DriftScenario, MultitoneState, OptimizeOptions, QuadraturePair,
                      ScannerConfig, WeightMap, design_unmodulated, plant_phase_lag,
                      quadrature_phase, resonance_offset_for_phase_shift, roi_density,
                      sample_unmodulated, simulate_drift_control, solve_multitone,
                      synthesize_quadrature, transfer_amplitude, wrap_phase)
from lissscan.errors import ConfigError, DomainError, IllConditioned, UndefinedPhase
from lissscan.phase import MAX_FRAMES

OMEGAS = tuple(2.0 * math.pi * f for f in (13 / 14, 1.0, 15 / 14))


def test_wrap_phase_convention():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(math.pi) == math.pi            # +pi stays +pi
    assert wrap_phase(-math.pi) == math.pi           # -pi maps onto +pi
    assert wrap_phase(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_phase(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    arr = wrap_phase(np.array([0.0, 2 * math.pi, -2 * math.pi, 7.0]))
    np.testing.assert_allclose(arr, [0.0, 0.0, 0.0, 7.0 - 2 * math.pi], atol=1e-12)
    assert isinstance(wrap_phase(1.0), float)


def test_quadrature_phase_quadrants():
    assert quadrature_phase(QuadraturePair(1.0, 0.0)) == 0.0
    assert quadrature_phase(QuadraturePair(0.0, 1.0)) == pytest.approx(math.pi / 2)
    assert quadrature_phase(QuadraturePair(0.0, -1.0)) == pytest.approx(-math.pi / 2)
    assert quadrature_phase(QuadraturePair(-1.0, 0.0)) == math.pi
    assert quadrature_phase(QuadraturePair(-1.0, -0.0)) == math.pi   # no -pi leak
    with pytest.raises(UndefinedPhase):
        quadrature_phase(QuadraturePair(0.0, 0.0))


def test_multitone_state_validation():
    with pytest.raises(DomainError):
        MultitoneState(omegas=(1.0, 1.0, 2.0), amps=(1, 1, 1), phases=(0, 0, 0))
    with pytest.raises(DomainError):
        MultitoneState(omegas=(1.0, 2.0, 3.0), amps=(1, -1, 1), phases=(0, 0, 0))
    with pytest.raises(DomainError, match="exactly three tones"):
        MultitoneState(omegas=(1.0, 2.0), amps=(1, 1), phases=(0, 0))
    state = MultitoneState(omegas=(1.0, 2.0, 3.0), amps=(1, 1, 1),
                           phases=(0.0, 3 * math.pi, -math.pi))
    assert state.phases[1] == pytest.approx(math.pi)
    assert state.phases[2] == math.pi


def test_synthesize_quadrature_formula():
    state = MultitoneState(omegas=(1.0, 2.0, 5.0), amps=(0.3, 0.5, 0.2),
                           phases=(0.1, -0.4, 1.2))
    t = np.linspace(0.0, 3.0, 7)
    x, xq = synthesize_quadrature(state, t)
    direct = sum(a * np.cos(w * t + p) for w, a, p in
                 zip(state.omegas, state.amps, state.phases))
    direct_q = sum(a * np.sin(w * t + p) for w, a, p in
                   zip(state.omegas, state.amps, state.phases))
    np.testing.assert_allclose(x, direct, atol=1e-12)
    np.testing.assert_allclose(xq, direct_q, atol=1e-12)


@pytest.mark.parametrize("t", [[[0.0, 1.0]], np.zeros((2, 3)), np.zeros((1, 1, 1))],
                         ids=["1x2", "2x3", "1x1x1"])
def test_synthesize_quadrature_refuses_a_t_of_more_than_one_dimension(t):
    # np.outer flattened a 2-D t, so [[0, 1]] gave two samples
    state = MultitoneState(omegas=(1.0, 2.0, 5.0), amps=(0.3, 0.5, 0.2), phases=(0.1, -0.4, 1.2))
    with pytest.raises(DomainError, match=r"^t must be a number or a 1-D array, got shape \("):
        synthesize_quadrature(state, t)
    one = synthesize_quadrature(state, 1.0)            # a number is one sample
    assert [a.tolist() for a in one] == [a.tolist() for a in synthesize_quadrature(state, [1.0])]
    with np.errstate(invalid="ignore"):                # NaN stays a pass-through
        assert np.isnan(synthesize_quadrature(state, [math.nan])[0]).all()


def test_multitone_round_trip():
    rng = np.random.default_rng(0)
    ts = np.array([0.0, 3.5, 7.0])
    for _ in range(100):
        state = MultitoneState(omegas=OMEGAS,
                               amps=tuple(rng.uniform(0.05, 1.0, 3)),
                               phases=tuple(rng.uniform(-math.pi, math.pi, 3)))
        x, xq = synthesize_quadrature(state, ts)
        rec = solve_multitone(x, xq, OMEGAS, 7.0)
        assert rec.amps == pytest.approx(state.amps, abs=1e-9)
        for got, want in zip(rec.phases, state.phases):
            assert abs(math.remainder(got - want, 2 * math.pi)) < 1e-9


def test_doubled_frame_time_aliases_the_tones():
    state = MultitoneState(omegas=OMEGAS, amps=(0.5, 0.6, 0.7), phases=(0.1, 0.2, 0.3))
    x, xq = synthesize_quadrature(state, np.array([0.0, 7.0, 14.0]))
    with pytest.raises(IllConditioned) as err:
        solve_multitone(x, xq, OMEGAS, 14.0)
    msg = str(err.value)
    assert "condition number" in msg and "coincide" in msg


def test_solve_multitone_validation():
    with pytest.raises(DomainError):
        solve_multitone([0, 0], [0, 0, 0], OMEGAS, 7.0)
    with pytest.raises(DomainError):
        solve_multitone([0, 0, math.nan], [0, 0, 0], OMEGAS, 7.0)
    with pytest.raises(DomainError):
        solve_multitone([0, 0, 0], [0, 0, 0], (1.0, 1.0, 2.0), 7.0)
    with pytest.raises(DomainError):
        solve_multitone([0, 0, 0], [0, 0, 0], OMEGAS, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("position, name", [(0, "drive frequency"), (1, "resonant frequency"),
                                            (2, "quality factor")])
def test_plant_phase_lag_refuses_a_non_finite_argument(position, name, value):
    args = [1.0, 1.0, 20.0]
    args[position] = value
    with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
        plant_phase_lag(*args)


def test_plant_phase_lag():
    assert plant_phase_lag(2.0, 2.0, 20.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert plant_phase_lag(1.9, 2.0, 20.0) == pytest.approx(0.4533386958545627, rel=1e-12)
    assert plant_phase_lag(1.9, 2.0, 20.0) < math.pi / 2 < plant_phase_lag(2.1, 2.0, 20.0)
    with pytest.raises(DomainError):
        plant_phase_lag(0.0, 2.0, 20.0)
    with pytest.raises(DomainError):
        plant_phase_lag(2.0, 2.0, 0.0)


def test_resonance_offset_round_trip():
    off = resonance_offset_for_phase_shift(2.0, 2.0, 20.0, 10.0)
    assert off == pytest.approx(-0.008796917127244619, rel=1e-9)
    moved = plant_phase_lag(2.0, 2.0 + off, 20.0) - plant_phase_lag(2.0, 2.0, 20.0)
    assert math.degrees(moved) == pytest.approx(10.0, abs=1e-9)
    off_down = resonance_offset_for_phase_shift(2.0, 2.0, 20.0, -20.0)
    assert off_down > 0    # lag falls as the resonance climbs
    moved = plant_phase_lag(2.0, 2.0 + off_down, 20.0) - plant_phase_lag(2.0, 2.0, 20.0)
    assert math.degrees(moved) == pytest.approx(-20.0, abs=1e-9)
    with pytest.raises(DomainError):
        resonance_offset_for_phase_shift(2.0, 2.0, 20.0, 95.0)   # target leaves (0, 180)
    with pytest.raises(DomainError, match="not representable"):   # g - f_res rounds to -f_res
        resonance_offset_for_phase_shift(1e-10, 1e10, 20.0, 45.0)
    for near_end in (-89.9999, 89.999):    # outside the old fixed search bracket
        off = resonance_offset_for_phase_shift(1.0, 1.0, 20.0, near_end)
        moved = plant_phase_lag(1.0, 1.0 + off, 20.0) - plant_phase_lag(1.0, 1.0, 20.0)
        assert math.degrees(moved) == pytest.approx(near_end, abs=1e-9)


@pytest.mark.parametrize("args", [(1.0, 1.0, 20.0, 90.0), (0.5, 1.0, 20.0, 178.0908475670036),
                                  (2.0, 1.0, 20.0, 1.9091524329963774)])
def test_resonance_offset_refuses_a_target_of_exactly_180_degrees(args):
    # base lag plus the shift is math.pi exactly; taken as a target, the root
    # below would be a resonance of about 2e-15, not an error
    assert plant_phase_lag(*args[:3]) + math.radians(args[3]) == math.pi
    with pytest.raises(DomainError, match=r"^target phase 180\.0 deg leaves \(0, 180\)$"):
        resonance_offset_for_phase_shift(*args)


@pytest.mark.parametrize("convert", [np.float32, lambda v: Decimal(str(v))],
                         ids=["float32", "Decimal"])
@pytest.mark.parametrize("position", [0, 1, 2], ids=["f_drive", "f_res", "q"])
def test_resonance_offset_is_computed_from_the_checked_floats(convert, position):
    # a float32 argument gave a float32 offset, a Decimal one a raw TypeError
    args = [2.0, 2.0, 20.0]
    args[position] = convert(args[position])
    got = resonance_offset_for_phase_shift(*args, 10.0)
    assert type(got) is float and got == resonance_offset_for_phase_shift(2.0, 2.0, 20.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(target_deg=st.floats(0.0, 180.0, exclude_min=True, exclude_max=True),
       f_drive=st.floats(0.1, 10.0), f_res=st.floats(0.1, 10.0), q=st.floats(1.0, 1e4))
def test_resonance_offset_round_trips_over_the_open_interval(target_deg, f_drive, f_res, q):
    base = plant_phase_lag(f_drive, f_res, q)
    delta_deg = target_deg - math.degrees(base)
    try:
        off = resonance_offset_for_phase_shift(f_drive, f_res, q, delta_deg)
    except DomainError:
        # only a target within rounding of 0 or 180 degrees may be refused
        assert min(target_deg, 180.0 - target_deg) < 1e-9
        return
    moved = plant_phase_lag(f_drive, f_res + off, q) - base
    assert abs(moved - math.radians(delta_deg)) <= 1e-9


def test_drift_scenario_validation():
    with pytest.raises(DomainError):
        DriftScenario(drift_fn=lambda t: 0.0, frame_time=0.0)
    with pytest.raises(DomainError):
        DriftScenario(drift_fn=lambda t: 0.0, frame_time=1.0, measurement_noise_deg=-1.0)


CFG2 = ScannerConfig.normalized(2.0)


@settings(max_examples=150, deadline=None)
@given(f_drive=st.floats(1e-3, 1e3), f_res=st.floats(1e-3, 1e3), q=st.floats(1.0, 1e4),
       frames=st.integers(1, 300), control=st.booleans())
@example(f_drive=2.0, f_res=2.0, q=20.0, frames=100, control=False)       # on resonance
@example(f_drive=0.643, f_res=0.558, q=20.0, frames=100, control=False)   # detuned
@example(f_drive=0.643, f_res=0.558, q=20.0, frames=100, control=True)
def test_zero_drift_means_zero_error(f_drive, f_res, q, frames, control):
    """With no drift every frame's error and correction is exactly 0.0 (not
    -0.0), with the loop off and with it on at zero read noise."""
    scenario = DriftScenario(drift_fn=lambda t: 0.0 * t, frame_time=6.4,
                             control_enabled=control)
    trace = simulate_drift_control(scenario, ScannerConfig(fx_res=f_res, qx=q), "x", f_drive,
                                   6.4 * frames)
    zeros = np.zeros(len(trace.t)).tobytes()
    assert trace.phase_error_deg.tobytes() == zeros
    assert trace.correction_deg.tobytes() == zeros


def test_open_loop_error_tracks_a_linear_drift():
    total = resonance_offset_for_phase_shift(2.0, 2.0, 20.0, 10.0)
    scenario = DriftScenario(drift_fn=lambda t: total * t / 2400.0, frame_time=6.4,
                             control_enabled=False)
    trace = simulate_drift_control(scenario, CFG2, "x", 2.0, 2400.0)
    assert len(trace.t) == 376                       # floor(2400/6.4) + 1 frames
    assert trace.phase_error_deg[0] == 0.0
    assert np.all(np.diff(trace.phase_error_deg) > 0)
    assert trace.phase_error_deg[-1] == pytest.approx(10.0, abs=1e-9)
    np.testing.assert_array_equal(trace.correction_deg, np.zeros(376))


def test_closed_loop_with_perfect_measurement_cancels_the_drift():
    total = resonance_offset_for_phase_shift(2.0, 2.0, 20.0, 10.0)
    scenario = DriftScenario(drift_fn=lambda t: total * t / 2400.0, frame_time=6.4,
                             control_enabled=True, measurement_noise_deg=0.0)
    trace = simulate_drift_control(scenario, CFG2, "x", 2.0, 2400.0)
    assert trace.max_abs_error() < 1e-12
    assert np.max(np.abs(trace.correction_deg)) > 0.01   # the loop is doing work


def test_closed_loop_error_is_read_noise_bounded():
    total = resonance_offset_for_phase_shift(2.0, 2.0, 20.0, 10.0)
    scenario = DriftScenario(drift_fn=lambda t: total * t / 2400.0, frame_time=6.4,
                             control_enabled=True, measurement_noise_deg=0.5)
    trace = simulate_drift_control(scenario, CFG2, "x", 2.0, 2400.0, seed=7)
    assert trace.error_std() == pytest.approx(0.46369294437224, rel=1e-9)
    again = simulate_drift_control(scenario, CFG2, "x", 2.0, 2400.0, seed=7)
    np.testing.assert_array_equal(trace.phase_error_deg, again.phase_error_deg)
    other = simulate_drift_control(scenario, CFG2, "x", 2.0, 2400.0, seed=8)
    assert not np.array_equal(trace.phase_error_deg, other.phase_error_deg)


def test_drift_fn_scalar_and_vector_forms_agree():
    scenario_vec = DriftScenario(drift_fn=lambda t: -1e-5 * t, frame_time=6.4,
                                 control_enabled=False)
    scenario_sc = DriftScenario(drift_fn=lambda t: float(-1e-5 * t), frame_time=6.4,
                                control_enabled=False)
    a = simulate_drift_control(scenario_vec, CFG2, "x", 2.0, 320.0)
    b = simulate_drift_control(scenario_sc, CFG2, "x", 2.0, 320.0)
    np.testing.assert_allclose(a.phase_error_deg, b.phase_error_deg, atol=1e-12)


def test_drift_simulation_validation():
    scenario = DriftScenario(drift_fn=lambda t: 0.0 * t, frame_time=6.4)
    with pytest.raises(DomainError):
        simulate_drift_control(scenario, CFG2, "x", 2.0, 3.0)   # shorter than a frame
    with pytest.raises(DomainError):
        simulate_drift_control(scenario, CFG2, "x", -2.0, 64.0)
    crash = DriftScenario(drift_fn=lambda t: 0.0 * t - 5.0, frame_time=6.4)
    with pytest.raises(DomainError):
        simulate_drift_control(crash, CFG2, "x", 2.0, 64.0)


NON_FINITE = [math.nan, math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
def test_drift_scenario_rejects_a_non_finite_frame_time(value):
    with pytest.raises(DomainError, match="frame_time"):
        DriftScenario(drift_fn=lambda t: 0.0 * t, frame_time=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_drift_scenario_rejects_a_non_finite_measurement_noise(value):
    with pytest.raises(DomainError, match="noise"):
        DriftScenario(drift_fn=lambda t: 0.0 * t, frame_time=6.4, measurement_noise_deg=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_drift_simulation_rejects_a_non_finite_drive_frequency(value):
    scenario = DriftScenario(drift_fn=lambda t: 0.0 * t, frame_time=6.4)
    with pytest.raises(DomainError, match="drive frequency"):
        simulate_drift_control(scenario, CFG2, "x", value, 64.0)


@pytest.mark.parametrize("value", NON_FINITE)
def test_drift_simulation_rejects_a_non_finite_duration(value):
    scenario = DriftScenario(drift_fn=lambda t: 0.0 * t, frame_time=6.4)
    with pytest.raises(DomainError, match="duration"):
        simulate_drift_control(scenario, CFG2, "x", 2.0, value)


def test_drift_simulation_bounds_the_frame_count_before_allocating():
    scenario = DriftScenario(drift_fn=lambda t: 0.0 * t, frame_time=1e-3)
    with pytest.raises(DomainError, match="frames"):
        simulate_drift_control(scenario, CFG2, "x", 2.0, MAX_FRAMES * 1e-3)
    tiny = DriftScenario(drift_fn=lambda t: 0.0 * t, frame_time=1e-300)
    with pytest.raises(DomainError, match="frames"):
        simulate_drift_control(tiny, CFG2, "x", 2.0, 1.0)


def test_drift_simulation_rejects_a_non_finite_resonance():
    runaway = DriftScenario(drift_fn=lambda t: t * math.nan, frame_time=6.4)
    with pytest.raises(DomainError, match="non-finite"):
        simulate_drift_control(runaway, CFG2, "x", 2.0, 64.0)


def test_drift_scenario_control_flag_must_be_a_bool():
    with pytest.raises(DomainError, match="control_enabled"):
        DriftScenario(drift_fn=lambda t: 0.0 * t, frame_time=6.4, control_enabled="false")


@pytest.mark.parametrize("value", NON_FINITE + [1e308])    # omega * 1e308 overflows
def test_solve_multitone_rejects_a_non_finite_frame_time(value):
    x, xq = synthesize_quadrature(MultitoneState(OMEGAS, (0.3, 0.5, 0.7), (0.1, -0.2, 0.3)),
                                  np.array([0.0, 3.5, 7.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")             # a CLI would print a warning on stderr
        with pytest.raises(DomainError, match="frame_time"):
            solve_multitone(x, xq, OMEGAS, value)


_SCENARIO = DriftScenario(lambda t: 0.0 * t, 6.4)
_PATTERN = sample_unmodulated(design_unmodulated(1.5, 7), CFG2, 0, 50)
_REAL_ARGUMENTS = {   # id: (name, call with the value, its range, a value outside it, error)
    "scenario": ("frame_time", lambda v: DriftScenario(lambda t: 0.0 * t, v),
                 "positive and finite", -6.4, DomainError),
    "drift-simulation": ("drive frequency",
                         lambda v: simulate_drift_control(_SCENARIO, CFG2, "x", v, 64.0),
                         "positive and finite", 0.0, DomainError),
    "multitone": ("frame_time", lambda v: solve_multitone([1, 0, 0], [0, 1, 0], OMEGAS, v),
                  "positive and finite", 0.0, DomainError),
    "transfer-amplitude": ("drive frequency", lambda v: transfer_amplitude(CFG2, "y", v),
                           "positive and finite", -math.inf, DomainError),
    "noise": ("measurement_noise_deg", lambda v: DriftScenario(lambda t: 0.0 * t, 6.4,
                                                                measurement_noise_deg=v),
              "finite and non-negative", -1.0, DomainError),
    "duration": ("duration", lambda v: simulate_drift_control(_SCENARIO, CFG2, "x", 2.0, v),
                 "finite", math.inf, DomainError),
    "step": ("step", lambda v: OptimizeOptions(step=v), "positive and finite", 0.0, DomainError),
    "threshold": ("threshold", lambda v: OptimizeOptions(threshold=v),
                  "finite and non-negative", -0.1, DomainError),
    "amp_x": ("amp_x", lambda v: sample_unmodulated(design_unmodulated(1.5, 7), CFG2, amp_x=v),
              "finite and non-negative", -1.0, DomainError),
    "fx_res": ("fx_res", lambda v: ScannerConfig(fx_res=v), "positive and finite", 0.0,
               ConfigError),
    "fy_res": ("fy_res", lambda v: ScannerConfig(1.5, fy_res=v), "positive and finite", -1.0,
               ConfigError),
    "qx": ("qx", lambda v: ScannerConfig(1.5, qx=v), "finite and at least 1", 0.5, ConfigError),
    "qy": ("qy", lambda v: ScannerConfig(1.5, qy=v), "finite and at least 1", math.inf,
           ConfigError),
    "omegas": ("omegas", lambda v: MultitoneState((v, 2.0, 3.0), (1, 1, 1), (0, 0, 0)),
               "finite", math.inf, DomainError),
    "amps": ("amps", lambda v: MultitoneState((1.0, 2.0, 3.0), (1, v, 1), (0, 0, 0)),
             "finite and non-negative", -1.0, DomainError),
    "phases": ("phases", lambda v: MultitoneState((1.0, 2.0, 3.0), (1, 1, 1), (0, 0, v)),
               "finite", -math.inf, DomainError),
    "quadrature": ("xq", lambda v: quadrature_phase(QuadraturePair(1.0, v)), "finite", math.inf,
                   DomainError),
    "roi-density": ("rectangle edge", lambda v: roi_density(_PATTERN, [(v, 0.9, 0.2, 0.8)]),
                    "finite", -math.inf, DomainError),
    "from-rectangles": ("rectangle edge",
                        lambda v: WeightMap.from_rectangles([ROI_B[:3] + (v,)], 8),
                        "finite", math.inf, DomainError),
}


@pytest.mark.parametrize("name, call, limit, outside, error", _REAL_ARGUMENTS.values(),
                         ids=_REAL_ARGUMENTS)
def test_positive_finite_checks_share_one_message(name, call, limit, outside, error):
    # True read as 1.0 and nan passed through at most of these
    for value, message in ((True, "a number"), (math.nan, limit), (outside, limit)):
        with pytest.raises(error) as err:
            call(value)
        assert str(err.value) == f"{name} must be {message}, got {value}"
