"""Single-tone selection rules: pinned designs, the mid-frame retrace
criterion, period bookkeeping, and an independent re-enumeration of the
whole search."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.spatial import cKDTree

from lissscan import (DesignCase, ScannerConfig, UnmodulatedDesign, as_fraction,
                      baseline_repeating_design, case1_criterion,
                      design_unmodulated, repeat_period, sample_unmodulated)
from lissscan.cli import cli_dispatch
from lissscan.errors import DomainError

F = Fraction


@pytest.mark.parametrize("r, m, fx, phix, case, k", [
    (F(1), 7, F(27, 28), 0.0, DesignCase.CASE1, 27),
    (F(2), 7, F(55, 28), 0.0, DesignCase.CASE1, 55),
    (F(3, 2), 7, F(41, 28), 0.0, DesignCase.CASE1, 41),
    (F(13, 10), 7, F(9, 7), math.pi / 14, DesignCase.CASE3, 36),
    (F(2660, 1100), 7, F(17, 7), math.pi / 14, DesignCase.CASE3, 68),
    (F(13, 10), 8, F(21, 16), 0.0, DesignCase.CASE2, 42),
])
def test_selection_rule_pinned(r, m, fx, phix, case, k):
    d = design_unmodulated(r, m)
    assert (d.fx, d.phix, d.case, d.k, d.m) == (fx, phix, case, k, m)
    assert d.fy == 1 and d.phiy == 0.0


def test_integer_ratio_carries_a_warning_note():
    assert design_unmodulated(F(2), 7).note is not None
    assert design_unmodulated(F(3, 2), 7).note is None


@pytest.mark.parametrize("r, m, fx, k", [
    (F(3, 2), 7, F(11, 7), 11),   # odd 11 beats the equidistant even 10
    (F(1), 7, F(6, 7), 6),        # 7 itself shares a factor with m
    (F(2), 5, F(9, 5), 9),
])
def test_baseline_rule_pinned(r, m, fx, k):
    b = baseline_repeating_design(r, m)
    assert (b.fx, b.k, b.case) == (fx, k, DesignCase.BASELINE)
    assert b.phix == math.pi / (2 * m)


def test_rational_inputs_accepted_in_several_spellings():
    for r in ("3/2", "1.5", 1.5, F(3, 2)):
        assert design_unmodulated(r, 7).fx == F(41, 28)
    with pytest.raises(DomainError):
        design_unmodulated("fast", 7)


def test_a_ratio_exponent_past_the_int_digit_bound_is_refused_unparsed(monkeypatch, capsys):
    # Fraction("1e-N") builds 10**N with no digit bound: 0.25 s at N = 10**6
    # and 8 s at 10**7, so "design --r 1e-3000000" spent 1.2 s before its error
    bound = sys.get_int_max_str_digits()
    refused = [f"1e-{bound + 1}", f"1E{bound + 1}", f" 2.5e+{bound + 1:_} ", "1e-3000000"]
    new = Fraction.__new__

    def unparsed(cls, numerator=0, *args, **kwargs):
        if isinstance(numerator, str) and numerator in refused:
            pytest.fail(f"Fraction parsed {numerator!r}")
        return new(cls, numerator, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", unparsed)
    for text in refused:
        with pytest.raises(DomainError, match=rf"^ratio exponent must lie in \[-{bound}, "):
            as_fraction(text)
    assert as_fraction(f"1e-{bound}") == Fraction(1, 10**bound)    # at the bound: parsed
    assert cli_dispatch(["design", "--r", "1e-3000000", "--m", "7"]) == 1
    assert capsys.readouterr().err == (f"error:DomainError: ratio exponent must lie in "
                                       f"[-{bound}, {bound}], got '1e-3000000'\n")


@pytest.mark.parametrize("text", ["1.5e", "e", "none", "1e+x", "2e3.5"])
def test_text_with_no_integer_exponent_is_left_to_fraction(text, capsys):
    # the exponent bound reads no exponent here, and Fraction refuses the text
    message = f"expected a rational number in float range, got {text!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        as_fraction(text)
    assert cli_dispatch(["design", "--r", text, "--m", "7"]) == 1
    assert capsys.readouterr().err == f"error:DomainError: {message}\n"


def test_retrace_criterion():
    # 41n mod 28 over n in {3..9} stays clear of +-1
    assert [(41 * n) % 28 for n in range(3, 10)] == [11, 24, 9, 22, 7, 20, 5]
    assert case1_criterion(41, 7) is True
    assert case1_criterion(9, 7) is False      # 9*3 = 27 = -1 mod 28
    assert case1_criterion(55, 7) is True
    with pytest.raises(DomainError):
        case1_criterion(14, 7)                 # gcd(14, 28) != 1
    with pytest.raises(DomainError):
        case1_criterion(0, 7)
    with pytest.raises(DomainError):
        case1_criterion(41, 1)


def _oracle_design(r, m, search_cap=F(1, 2)):
    """Plain re-enumeration of the selection search, kept deliberately naive."""
    denom = 4 * m
    center, cap = r * denom, search_cap * denom
    half = m // 2
    lo = math.floor(center - cap)
    ks = [k for k in range(max(1, lo), math.ceil(center + cap) + 1)
          if abs(F(k) - center) <= cap]
    for k in sorted(ks, key=lambda k: (abs(F(k) - center), k)):
        g = math.gcd(k, denom)
        if g == 1 and all((k * n) % denom not in (1, denom - 1)
                          for n in range(half, 3 * half + 1)):
            return F(k, denom), 0.0, "Case1"
        if g == 2:
            return F(k, denom), 0.0, "Case2"
        if g == 4:
            return F(k, denom), math.pi / (2 * m), "Case3"
    return None


def test_selection_agrees_with_naive_re_enumeration_everywhere():
    rs = [F(100 + 5 * i, 100) for i in range(41)]
    rs += [F(13, 10), F(7, 5), F(29, 16), F(2660, 1100), F(999, 500)]
    for r in rs:
        for m in (6, 7, 8, 9):
            d = design_unmodulated(r, m)
            assert (d.fx, d.phix, d.case.value) == _oracle_design(r, m), (r, m)


@settings(max_examples=300, deadline=None)
@given(r=st.fractions(1, 3, max_denominator=400), m=st.integers(2, 64))
def test_selection_agrees_with_brute_force_on_random_ratios(r, m):
    d = design_unmodulated(r, m)
    assert (d.fx, d.phix, d.case.value) == _oracle_design(r, m)


def _oracle_baseline(r, m):
    ks = [k for k in range(1, math.ceil(r * m) + m + 2) if math.gcd(k, m) == 1]
    best = min(ks, key=lambda k: (abs(F(k) - r * m), k % 2 == 0, k))
    return F(best, m)


def test_baseline_agrees_with_naive_re_enumeration_everywhere():
    for r in [F(100 + 5 * i, 100) for i in range(41)]:
        for m in (6, 7, 8, 9):
            assert baseline_repeating_design(r, m).fx == _oracle_baseline(r, m), (r, m)


def test_ratio_and_frame_time_bounds():
    with pytest.raises(DomainError):
        design_unmodulated(F(99, 100), 7)
    with pytest.raises(DomainError):
        design_unmodulated(F(31, 10), 7)
    with pytest.raises(DomainError):
        design_unmodulated(F(3, 2), 1)
    with pytest.raises(DomainError):
        design_unmodulated(F(3, 2), 65)
    assert design_unmodulated(F(3, 2), 7.0) == design_unmodulated(F(3, 2), 7)   # 7.0 reads as 7
    with pytest.raises(DomainError):
        baseline_repeating_design(F(-1, 2), 7)


def test_every_ratio_and_frame_time_has_a_design_within_half_a_unit():
    # within 2m of r*4m lies some k = 2 (mod 4m), a gcd-2 design, so the
    # search never has to look further; checked on a 1/(12m) grid of r
    for m in range(2, 65):
        for i in range(24 * m + 1):
            r = 1 + F(i, 12 * m)
            d = design_unmodulated(r, m)
            assert abs(d.fx - r) <= F(1, 2), (r, m)


@pytest.mark.parametrize("fx, phix, signal, coverage", [
    (F(3, 2), math.pi / 4, F(2), F(2)),
    (F(11, 7), math.pi / 14, F(7), F(7)),
    (F(41, 28), 0.0, F(28), F(14)),     # zero phases fold the second half back
    (F(17, 7), math.pi / 14, F(7), F(7)),
    (F(21, 16), 0.0, F(16), F(8)),
])
def test_periods_pinned(fx, phix, signal, coverage):
    report = repeat_period(fx, 1, phix, 0.0)
    assert (report.signal_period, report.coverage_period) == (signal, coverage)


def _oracle_coverage_period(fx, fy, cx, cy, signal):
    """Brute force over every y zero of one signal period, with the phases
    given exactly as multiples of pi (phix = cx*pi, phiy = cy*pi): the point
    set halves its period iff the x phase is a multiple of pi at one of them."""
    # sin(2*pi*fy*t + cy*pi) = 0 at t_n = (n - cy) / (2*fy)
    first = math.ceil(cy)
    for n in range(first, first + int(2 * fy * signal)):
        x_phase = 2 * fx * (n - cy) / (2 * fy) + cx
        if x_phase.denominator == 1:
            return signal / 2
    return signal


_PHASES = st.fractions(-2, 2, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(fx=st.fractions(F(1, 20), 3, max_denominator=20),
       fy=st.fractions(F(1, 20), 3, max_denominator=20), cx=_PHASES, cy=_PHASES)
@example(fx=F(3, 2), fy=F(2, 3), cx=F(1, 4), cy=F(1, 3))    # retraces with fy != 1, phiy != 0
@example(fx=F(3, 2), fy=F(2, 3), cx=F(1, 4), cy=F(1, 2))    # does not
def test_coverage_period_matches_a_walk_over_the_y_zeros(fx, fy, cx, cy):
    assume(fx > 0 and fy > 0)
    report = repeat_period(fx, fy, float(cx) * math.pi, float(cy) * math.pi)
    signal = report.signal_period
    cycles_x, cycles_y = fx * signal, fy * signal    # whole, coprime cycle counts
    assert cycles_x.denominator == cycles_y.denominator == 1
    assert math.gcd(cycles_x.numerator, cycles_y.numerator) == 1
    assert report.coverage_period == _oracle_coverage_period(fx, fy, cx, cy, signal)


def test_period_validation():
    with pytest.raises(DomainError):
        repeat_period(F(0), 1)
    with pytest.raises(DomainError):
        repeat_period(F(3, 2), F(-1))
    for phase in (math.nan, math.inf):      # raised ValueError / OverflowError from round()
        with pytest.raises(DomainError, match=f"^phix must be finite, got {phase}$"):
            repeat_period(F(3, 2), 1, phase)


def test_half_signal_period_retraces_the_point_set():
    # fx = 41/28: samples over the second half of the signal period land on
    # the first half's point set, while consecutive frames do not coincide.
    design = design_unmodulated(F(3, 2), 7)
    cfg = ScannerConfig.normalized(1.5)
    frames = [sample_unmodulated(design, cfg, i, 400) for i in range(4)]
    first = np.column_stack([np.concatenate([frames[0].x, frames[1].x]),
                             np.concatenate([frames[0].y, frames[1].y])])
    second = np.column_stack([np.concatenate([frames[2].x, frames[3].x]),
                              np.concatenate([frames[2].y, frames[3].y])])
    dist, _ = cKDTree(first).query(second)
    assert float(np.max(dist[1:])) < 1e-9   # t = 14 itself has no grid partner
    frame_gap, _ = cKDTree(np.column_stack([frames[0].x, frames[0].y])).query(
        np.column_stack([frames[1].x, frames[1].y]))
    assert float(np.max(frame_gap)) > 0.05


def test_design_record_round_trip():
    d = design_unmodulated(F(13, 10), 7)
    back = UnmodulatedDesign.from_dict(d.to_dict())
    assert back == d
    assert back.fx == F(9, 7)   # exact rational survives the string form
    plain = UnmodulatedDesign(fx=F(5, 4), phix=0.1, m=7)
    assert UnmodulatedDesign.from_dict(plain.to_dict()) == plain
    assert UnmodulatedDesign.from_dict(dict(plain.to_dict(), m=7.0)) == plain   # integral float


def test_a_design_record_takes_absent_fields_from_the_dataclass(with_defaults):
    # from_dict passes only the fields a record holds; a subclass's defaults show it
    record = with_defaults(UnmodulatedDesign, phiy=0.5, note="hand-made")
    design = record.from_dict({"fx": "5/4", "phix": 0.1, "m": 7})
    assert (design.fy, design.phiy, design.case, design.k, design.note) == (
        1, 0.5, None, None, "hand-made")
    assert record.from_dict({"fx": "5/4", "phix": 0.1, "m": 7, "phiy": 0.0}).phiy == 0.0


@pytest.mark.parametrize("record, message", [
    ({"phix": 0.0, "m": 7}, "design record missing field 'fx'"),
    ({"fx": "5/4", "phix": 0.0}, "design record missing field 'm'"),
    ({"fx": "5/4", "phix": 0.0, "m": 7, "fy": None},
     "expected a rational number in float range, got None"),
    ({"fx": "5/4", "phix": 0.0, "m": 7, "phiy": None}, "phiy must be a number, got None"),
    ({"fx": "5/4", "phix": 0.0, "m": 7, "case": "Case1", "k": None},
     "case and k must be set together"),
    (None, "malformed design record: 'NoneType' object is not subscriptable"),
])
def test_a_missing_or_null_design_field_is_named(record, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        UnmodulatedDesign.from_dict(record)


@pytest.mark.parametrize("field, value", [
    ("fx", "1e400"), ("fy", "1e400"), ("phix", "inf"), ("phiy", "nan"), ("m", None),
    ("case", "Case9"), ("k", [41]),
    ("m", 7.9), ("m", True), ("k", 41.5), ("fy", True), ("phix", True)])
def test_design_record_rejects_values_a_float_pattern_cannot_hold(field, value):
    record = design_unmodulated(F(3, 2), 7).to_dict()
    record[field] = value
    with pytest.raises(DomainError):
        UnmodulatedDesign.from_dict(record)


@pytest.mark.parametrize("design", [
    design_unmodulated(F(3, 2), 7), design_unmodulated(F(13, 10), 8),
    design_unmodulated(F(13, 10), 7), baseline_repeating_design(F(3, 2), 7),
], ids=["Case1", "Case2", "Case3", "Baseline"])
def test_a_design_record_must_match_its_case(design):
    record = design.to_dict()
    assert UnmodulatedDesign.from_dict(record) == design
    other_phase = math.pi / (2 * design.m) if design.phix == 0.0 else 0.0
    for field, value in (("phix", other_phase), ("k", design.k + 1), ("fx", "1/2")):
        with pytest.raises(DomainError, match=f"inconsistent with {design.case.value}"):
            UnmodulatedDesign.from_dict(dict(record, **{field: value}))


def test_design_record_consistency_checks():
    with pytest.raises(DomainError):
        UnmodulatedDesign(fx=F(41, 28), phix=0.0, m=7, case=DesignCase.CASE2, k=41)
    with pytest.raises(DomainError):
        UnmodulatedDesign(fx=F(41, 28), phix=0.0, m=7, k=41)  # k without case
    with pytest.raises(DomainError):
        UnmodulatedDesign(fx=F(0), phix=0.0, m=7)
    with pytest.raises(DomainError):
        UnmodulatedDesign.from_dict({"fx": "41/28"})
