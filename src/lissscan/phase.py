"""Quadrature phase recovery and resonance-drift control simulation.

Motion phase is read from a signal and its 90-degree-shifted copy with a
four-quadrant arctangent. Three-tone signals are separated by sampling
both copies at frame start, middle and end and solving the 6x6 linear
system in {amp*cos(phase), amp*sin(phase)} per tone. The drift simulator
moves the plant resonance quasi-statically, evaluates the steady-state
oscillator phase at the fixed drive frequency, and optionally subtracts
the (noisily) measured error at every frame start.

All phases are reported in (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (DomainError, IllConditioned, UndefinedPhase, array_value, number_value,
                     record_value, value_text)
from .scanner import ScannerConfig

COND_LIMIT = 1e8
MAX_FRAMES = 10**6   # bounds the drift simulation's arrays (8 MB each)
_TWO_PI = 2.0 * math.pi


@np.errstate(invalid="ignore")
def wrap_phase(theta):
    """Wrap radians into (-pi, pi]. theta is a number or an array of real
    numbers of any shape (DomainError for a complex, text, object or ragged
    one); a NaN or infinite theta gives NaN."""
    wrapped = np.mod(array_value(theta, "theta") + np.pi, _TWO_PI) - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    return float(wrapped) if np.isscalar(theta) or np.ndim(theta) == 0 else wrapped


@dataclass(frozen=True)
class QuadraturePair:
    """A motion sample and its 90-degree-shifted copy."""

    x: float
    xq: float

    def __post_init__(self) -> None:
        for name in ("x", "xq"):
            object.__setattr__(self, name, number_value(getattr(self, name), name))


def quadrature_phase(pair: QuadraturePair) -> float:
    """Instantaneous phase of a quadrature pair, in (-pi, pi]."""
    if pair.x == 0.0 and pair.xq == 0.0:
        raise UndefinedPhase("quadrature pair (0, 0) has no direction")
    theta = math.atan2(pair.xq, pair.x)
    return math.pi if theta == -math.pi else theta


@dataclass(eq=False)
class MultitoneState:
    """Amplitudes and phases of three tones at fixed angular frequencies."""

    omegas: tuple[float, float, float]
    amps: tuple[float, float, float]
    phases: tuple[float, float, float]

    def __post_init__(self) -> None:
        self.omegas = tuple(number_value(w, "omegas") for w in self.omegas)
        self.amps = tuple(number_value(a, "amps", 0) for a in self.amps)
        self.phases = tuple(wrap_phase(number_value(p, "phases")) for p in self.phases)
        if len(self.omegas) != 3 or len(self.amps) != 3 or len(self.phases) != 3:
            raise DomainError("state must carry exactly three tones")
        if len(set(self.omegas)) != 3:
            raise DomainError("tone frequencies must be distinct")


@np.errstate(over="ignore", invalid="ignore")
def synthesize_quadrature(state: MultitoneState, t) -> tuple[np.ndarray, np.ndarray]:
    """x(t) = sum A_i cos(w_i t + phi_i) and its quadrature copy with sin.
    t is a number or a 1-D array of real numbers (DomainError for more
    dimensions, or for a complex, text, object or ragged t); a NaN or
    infinite t, or one so large that w_i t overflows, gives NaN samples."""
    t = array_value(t, "t")
    if t.ndim > 1:
        raise DomainError(f"t must be a number or a 1-D array, got shape {t.shape}")
    w = np.array(state.omegas)
    a = np.array(state.amps)
    p = np.array(state.phases)
    arg = np.outer(t, w) + p
    return np.cos(arg) @ a, np.sin(arg) @ a


def _aliasing_message(omegas: np.ndarray, frame_time: float, cond: float) -> str:
    half = frame_time / 2.0
    clauses = []
    for i in range(3):
        for j in range(i + 1, 3):
            beats = (omegas[i] - omegas[j]) * half / _TWO_PI
            if abs(beats - round(beats)) < 1e-9:
                clauses.append(
                    f"tones {i} and {j} coincide on the sampling comb "
                    f"((omega[{i}]-omega[{j}])*T/2 = {round(beats)}*2*pi)")
    cycles = omegas * frame_time / _TWO_PI
    if np.all(np.abs(cycles - np.round(cycles)) < 1e-9):
        clauses.append("every tone completes whole cycles over T, so the "
                       "t = 0 and t = T samples coincide")
    detail = "; ".join(clauses) if clauses else "no aliasing pair identified"
    return f"recovery system condition number {cond:.3e} exceeds {COND_LIMIT:.0e}: {detail}"


def solve_multitone(x_samples: Sequence[float], xq_samples: Sequence[float],
                    omegas: Sequence[float], frame_time: float) -> MultitoneState:
    """Recover three tone amplitudes and phases from quadrature samples taken
    at t = 0, frame_time/2 and frame_time."""
    x = array_value(x_samples, "x_samples")
    xq = array_value(xq_samples, "xq_samples")
    w = array_value(omegas, "omegas")
    if x.shape != (3,) or xq.shape != (3,) or w.shape != (3,):
        raise DomainError("need exactly three samples per signal and three frequencies")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xq)) and np.all(np.isfinite(w))):
        raise DomainError("samples and frequencies must be finite")
    if len(set(w.tolist())) != 3:
        raise DomainError("tone frequencies must be distinct")
    frame_time = number_value(frame_time, "frame_time", positive=True)
    if not math.isfinite(float(np.abs(w).max()) * frame_time):
        raise DomainError("omegas * frame_time must stay within float range")
    ts = np.array([0.0, frame_time / 2.0, frame_time])
    cos_block = np.cos(np.outer(ts, w))
    sin_block = np.sin(np.outer(ts, w))
    # unknowns: [A_i cos(phi_i)] then [A_i sin(phi_i)]
    mat = np.block([[cos_block, -sin_block], [sin_block, cos_block]])
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditioned(_aliasing_message(w, frame_time, cond))
    solution = np.linalg.solve(mat, np.concatenate([x, xq]))
    c, s = solution[:3], solution[3:]
    return MultitoneState(omegas=tuple(w),
                          amps=tuple(np.hypot(c, s)),
                          phases=tuple(np.arctan2(s, c)))


def plant_phase_lag(f_drive: float, f_res: float, q: float) -> float:
    """Steady-state phase lag of a driven harmonic oscillator, in (0, pi)."""
    f_drive = number_value(f_drive, "drive frequency", positive=True)
    f_res = number_value(f_res, "resonant frequency", positive=True)
    q = number_value(q, "quality factor", positive=True)
    return math.atan2(f_drive * f_res / q, f_res * f_res - f_drive * f_drive)


def resonance_offset_for_phase_shift(f_drive: float, f_res: float, q: float,
                                     delta_deg: float) -> float:
    """Resonance offset that moves the steady-state phase by delta_deg.

    The lag is psi where q*sin(psi)*g**2 - f*cos(psi)*g - q*sin(psi)*f**2 = 0
    for the resonance g. Its roots multiply to -f**2, so exactly one is
    positive; it is taken in the form that does not cancel.
    """
    base = plant_phase_lag(f_drive, f_res, q)
    target = base + math.radians(number_value(delta_deg, "delta_deg"))
    if not 0.0 < target < math.pi:
        raise DomainError(f"target phase {math.degrees(target):.1f} deg leaves (0, 180)")
    a, b = q * math.sin(target), f_drive * math.cos(target)
    root = math.hypot(b, 2.0 * a * f_drive)
    g = (b + root) / (2.0 * a) if b >= 0.0 else 2.0 * a * f_drive * f_drive / (root - b)
    offset = g - f_res
    if not (math.isfinite(offset) and f_res + offset > 0.0):
        raise DomainError(f"resonance {g!r} for this target is not representable "
                          "as f_res + offset")
    return offset


@dataclass
class DriftScenario:
    """Quasi-static resonance drift plus the per-frame measurement loop."""

    drift_fn: Callable[[float], float]   # time -> resonance offset, config units
    frame_time: float
    control_enabled: bool = True
    measurement_noise_deg: float = 0.0

    def __post_init__(self) -> None:
        if not callable(self.drift_fn):
            raise DomainError(f"drift_fn must be callable, got {value_text(self.drift_fn)}")
        self.frame_time = number_value(self.frame_time, "frame_time", positive=True)
        self.measurement_noise_deg = number_value(self.measurement_noise_deg,
                                                  "measurement_noise_deg", 0)
        if not isinstance(self.control_enabled, bool):
            raise DomainError(f"control_enabled must be a bool, "
                              f"got {value_text(self.control_enabled)}")


@dataclass(eq=False)
class DriftTrace:
    """Per-frame phase errors (after correction, when control is on)."""

    t: np.ndarray
    phase_error_deg: np.ndarray
    correction_deg: np.ndarray

    def max_abs_error(self) -> float:
        return float(np.max(np.abs(self.phase_error_deg)))

    def error_std(self) -> float:
        return float(np.std(self.phase_error_deg))


def _drift_offsets(drift_fn, times: np.ndarray) -> np.ndarray:
    try:
        offsets = drift_fn(times)
        if np.shape(offsets) == times.shape:
            return array_value(offsets, "drift_fn's output")
    except (TypeError, ValueError):     # a drift_fn of one time only
        pass
    try:
        return np.array([record_value(drift_fn(t), "drift_fn's output") for t in times])
    except (TypeError, ValueError) as exc:
        raise DomainError(f"drift_fn must map a time to one number: {exc}") from exc


def simulate_drift_control(scenario: DriftScenario, config: ScannerConfig, axis: str,
                           f_drive: float, duration: float, seed: int = 0) -> DriftTrace:
    """Steady-state oscillator phase error at every frame start while the
    resonance wanders.

    With control enabled the error measured at each frame start (plus
    Gaussian read noise) is subtracted from the actuation phase, so the
    reported per-frame error is the post-correction one.
    """
    f_res, q = config.axis(axis)
    f_drive = number_value(f_drive, "drive frequency", positive=True)
    duration = number_value(duration, "duration")
    seed = number_value(seed, "seed", 0, convert=int)
    if not scenario.frame_time <= duration < MAX_FRAMES * scenario.frame_time:
        raise DomainError(f"duration must cover 1 to {MAX_FRAMES} frames, got {duration}")
    n_frames = int(math.floor(duration / scenario.frame_time)) + 1
    times = np.arange(n_frames) * scenario.frame_time
    res = f_res + _drift_offsets(scenario.drift_fn, times)
    if not np.all((res > 0) & np.isfinite(res)):
        raise DomainError("drift drove the resonance non-positive or non-finite")
    lag = lambda g: np.arctan2(f_drive * g / q, g * g - f_drive * f_drive)
    psi, psi0 = lag(res), lag(np.float64(f_res))    # one arctan2: no drift reads 0.0

    if not scenario.control_enabled:
        errors = wrap_phase(psi - psi0)
        corrections = np.zeros(n_frames)
    else:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(n_frames) * math.radians(scenario.measurement_noise_deg)
        # Closed loop: the correction cancels the measured error exactly, so
        # the pre-correction error at frame k is the drift accrued since the
        # previous frame minus the previous noise; post-correction it is just
        # the (negated) current read noise.
        pre = np.empty(n_frames)
        pre[0] = psi[0] - psi0
        pre[1:] = np.diff(psi) - noise[:-1]
        pre = wrap_phase(pre)
        corrections = wrap_phase(-(pre + noise))
        errors = wrap_phase(pre + corrections)
    return DriftTrace(t=times,
                      phase_error_deg=np.degrees(errors),
                      correction_deg=np.degrees(corrections))
