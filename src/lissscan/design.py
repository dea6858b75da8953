"""Single-tone frequency and phase selection for coverage-optimal scanning.

The y axis is driven at frequency 1 with phase 0 (normalized units) and the
x axis at a rational frequency near the resonance ratio r. All frequencies
are exact rationals so pattern periods and retrace structure are decided in
integer arithmetic; floats appear only once a pattern is sampled.

m is the frame time in y cycles: a pattern is useful when the traced point
set keeps covering new ground for at least one whole frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator

from .errors import DomainError, number_value, record_errors, record_value, value_text

M_MIN, M_MAX = 2, 64
R_MIN, R_MAX = Fraction(1), Fraction(3)
# Coverage's sampling defaults live here, without numpy, for the CLI parser.
N_SAMPLES_DEFAULT = 1000   # per frame
N_GRID_DEFAULT = 128       # patch centers per axis


class DesignCase(str, Enum):
    """The selection-rule class a design came from."""

    CASE1 = "Case1"        # point set closes after two frames, phase 0
    CASE2 = "Case2"        # closes after one frame, phase 0
    CASE3 = "Case3"        # closes after one frame, quarter-gap phase pi/(2m)
    BASELINE = "Baseline"  # every-frame repeating comparison rule


# case -> (c, g, quarter): fx = k/(c*m) with gcd(k, c*m) = g, and
# phix = pi/(2m) when quarter, else 0
_CASES = {
    DesignCase.CASE1: (4, 1, False),
    DesignCase.CASE2: (4, 2, False),
    DesignCase.CASE3: (4, 4, True),
    DesignCase.BASELINE: (1, 1, True),
}
_PROPOSED_BY_GCD = {g: case for case, (c, g, _) in _CASES.items() if c == 4}


def _prescribed(case: DesignCase, k: int, m: int) -> tuple[Fraction, float]:
    """The (fx, phix) that case prescribes for k and m."""
    c, _, quarter = _CASES[case]
    return Fraction(k, c * m), math.pi / (2 * m) if quarter else 0.0


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '41/28' or '1.5', floats and Fractions."""
    try:
        frac = record_value(value, "ratio", Fraction)    # a boolean is not 1 or 0
        float(frac)                 # patterns are sampled in floats
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise DomainError(f"expected a rational number in float range, "
                          f"got {value_text(value)}") from exc
    return frac


@dataclass(frozen=True)
class UnmodulatedDesign:
    """One single-tone pattern: x tone (fx, phix) against the unit y tone.

    case and k are present when the design came out of one of the selection
    rules; hand-built patterns leave them as None.
    """

    fx: Fraction
    phix: float
    m: int
    fy: Fraction = Fraction(1)
    phiy: float = 0.0
    case: DesignCase | None = None
    k: int | None = None
    note: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "fx", as_fraction(self.fx))
        object.__setattr__(self, "fy", as_fraction(self.fy))
        for name in ("phix", "phiy"):
            object.__setattr__(self, name, number_value(getattr(self, name), name))
        object.__setattr__(self, "m", number_value(self.m, "m", M_MIN, M_MAX, int))
        if self.fx <= 0 or self.fy <= 0:
            raise DomainError("tone frequencies must be positive")
        if (self.case is None) != (self.k is None):
            raise DomainError("case and k must be set together")
        if self.case is not None:
            try:
                object.__setattr__(self, "case", DesignCase(self.case))
            except (TypeError, ValueError):
                raise DomainError(f"unknown design case {value_text(self.case)}") from None
            object.__setattr__(self, "k", number_value(self.k, "k", 1, convert=int))
            self._check_case()

    def _check_case(self) -> None:
        c, g, _ = _CASES[self.case]
        if (math.gcd(self.k, c * self.m) != g
                or (self.fx, self.phix) != _prescribed(self.case, self.k, self.m)):
            raise DomainError(f"design fields inconsistent with {self.case.value}")

    def to_dict(self) -> dict:
        return {
            "fx": str(self.fx), "fy": str(self.fy), "phix": self.phix, "phiy": self.phiy,
            "m": self.m, "case": None if self.case is None else self.case.value,
            "k": self.k, "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UnmodulatedDesign":
        with record_errors("design record", DomainError):
            return cls(fx=data["fx"], phix=data["phix"], m=data["m"], fy=data.get("fy", 1),
                       phiy=data.get("phiy", 0.0), case=data.get("case"), k=data.get("k"),
                       note=data.get("note"))


@dataclass(frozen=True)
class PeriodReport:
    """Signal and coverage periods of a two-tone pattern (see repeat_period)."""

    signal_period: Fraction    # both tones complete whole cycles
    coverage_period: Fraction  # traced point set repeats (possibly half of the above)


def case1_criterion(k: int, m: int) -> bool:
    """Mid-frame retrace check for two-frame-period candidates.

    True iff k*n mod 4m stays away from +-1 for every n in the window
    {floor(m/2), ..., 3*floor(m/2)}. A near-miss residue in that window means
    the trajectory comes back onto itself around mid-frame, collapsing the
    covered area even though the nominal period is fine.
    """
    m = number_value(m, "m", M_MIN, M_MAX, int)
    k = number_value(k, "k", 1, convert=int)
    q = 4 * m
    if math.gcd(k, q) != 1:
        raise DomainError(f"case1_criterion requires gcd(k, 4m) == 1, got gcd({k}, {q}) = {math.gcd(k, q)}")
    half = m // 2
    return all((k * n) % q not in (1, q - 1) for n in range(half, 3 * half + 1))


def _tie_groups(center: Fraction) -> Iterator[list[int]]:
    """Integers grouped by ascending |k - center|; ties come out together,
    smaller first."""
    p, q = center.numerator, center.denominator   # distances in units of 1/q
    lo, hi = p // q, p // q + 1
    while True:
        d_lo, d_hi = p - lo * q, hi * q - p
        if d_lo == d_hi:
            yield [lo, hi]
            lo -= 1
            hi += 1
        elif d_lo < d_hi:
            yield [lo]
            lo -= 1
        else:
            yield [hi]
            hi += 1


_INTEGER_R_NOTE = (
    "integer resonance ratio: nearby tones sit close to a degenerate pattern, "
    "expect a weak fill-factor / scanning-range trade-off"
)


def design_unmodulated(r, m: int) -> UnmodulatedDesign:
    """Pick the x tone k/(4m) closest to r whose pattern keeps covering new
    ground for a whole frame.

    Candidates are visited by increasing |k/(4m) - r| (ties to the smaller k)
    and the first one falling in an acceptable class, keyed to gcd(k, 4m),
    wins: gcd 1 passing the mid-frame criterion (phase 0), gcd 2 (phase 0),
    or gcd 4 (phase pi/(2m)). The search always ends within |fx - r| <= 1/2:
    the integers within 2m of r*4m include 4m consecutive ones, so one of them
    is k = 2 (mod 4m), which has gcd 2.
    """
    r = as_fraction(r)
    m = number_value(m, "m", M_MIN, M_MAX, int)
    if not R_MIN <= r <= R_MAX:
        raise DomainError(f"resonance ratio must lie in [{R_MIN}, {R_MAX}], got {float(r)}")
    denom = 4 * m
    note = _INTEGER_R_NOTE if r.denominator == 1 else None
    for group in _tie_groups(r * denom):
        for k in group:     # every k visited is within 2m of r*4m >= 4m, so k >= 2m
            case = _PROPOSED_BY_GCD.get(math.gcd(k, denom))
            if case is not None and (case is not DesignCase.CASE1 or case1_criterion(k, m)):
                return UnmodulatedDesign(*_prescribed(case, k, m), m, case=case, k=k, note=note)


def baseline_repeating_design(r, m: int) -> UnmodulatedDesign:
    """Every-frame repeating comparison rule: coprime k/m closest to r with
    the quarter-gap phase pi/(2m).

    Equidistant candidates prefer an odd k, then the smaller one. With m odd
    an even k makes the second half-frame the mirror image of the first about
    the x axis, and that forced symmetry costs fill-factor.
    """
    r = as_fraction(r)
    m = number_value(m, "m", M_MIN, M_MAX, int)
    if r <= 0:
        raise DomainError(f"resonance ratio must be positive, got {float(r)}")
    k = next(k for group in _tie_groups(r * m)      # k = 1 is coprime with every m
             for k in sorted(group, key=lambda k: (k % 2 == 0, k))
             if k >= 1 and math.gcd(k, m) == 1)
    return UnmodulatedDesign(*_prescribed(DesignCase.BASELINE, k, m), m,
                             case=DesignCase.BASELINE, k=k)


def repeat_period(fx, fy, phix: float = 0.0, phiy: float = 0.0) -> PeriodReport:
    """Signal period of the two-tone trajectory and the possibly shorter
    period after which the traced point set repeats.

    The point set halves its period whenever some instant has both
    instantaneous phases at a multiple of pi (for example phix = phiy = 0 at
    t = 0): cosine symmetry then folds the second half-period onto the first.
    With fx/fy = p/q in lowest terms, x phase / pi at the n-th y zero is
    (p*n - p*phiy/pi + q*phix/pi) / q and p*n meets every residue mod q, so
    that instant exists iff q*phix/pi - p*phiy/pi is an integer (to q*1e-9).
    """
    fx = as_fraction(fx)
    fy = as_fraction(fy)
    phix, phiy = number_value(phix, "phix"), number_value(phiy, "phiy")
    if fx <= 0 or fy <= 0:
        raise DomainError("tone frequencies must be positive")
    signal = Fraction(math.lcm(fx.denominator, fy.denominator),
                      math.gcd(fx.numerator, fy.numerator))
    p, q = (fx / fy).as_integer_ratio()
    offset = (q * Fraction(phix) - p * Fraction(phiy)) / Fraction(math.pi)  # q can pass float range
    if abs(offset - round(offset)) * 10**9 < q:
        return PeriodReport(signal, signal / 2)
    return PeriodReport(signal, signal)
