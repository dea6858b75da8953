"""Oscillator amplitude model: anchored response values, shape, validation."""

import math
import re

import numpy as np
import pytest

from lissscan import ScannerConfig, peak_frequency, settle_time, transfer_amplitude
from lissscan.errors import ConfigError, DomainError

CFG = ScannerConfig.normalized(1.5)  # fx_res 1.5, fy_res 1, Q 20 both axes


def test_response_is_one_on_resonance():
    assert transfer_amplitude(CFG, "x", 1.5) == 1.0
    assert transfer_amplitude(CFG, "y", 1.0) == 1.0


def test_response_anchors():
    # values pinned from the closed form 1/(Q*sqrt(((f/fr)^2-1)^2 + (f/(fr*Q))^2))
    assert transfer_amplitude(CFG, "x", 11 / 7) == pytest.approx(0.45173330777393683, rel=1e-12)
    assert transfer_amplitude(CFG, "x", 41 / 28) == pytest.approx(0.7375084657374081, rel=1e-12)


def test_dc_limit_is_inverse_q():
    assert transfer_amplitude(CFG, "x", 1e-9) == pytest.approx(1.0 / 20.0, rel=1e-9)
    hi_q = ScannerConfig(fx_res=2.0, qx=50.0)
    assert transfer_amplitude(hi_q, "x", 1e-9) == pytest.approx(1.0 / 50.0, rel=1e-9)


def test_peak_sits_just_below_resonance_and_tops_the_curve():
    peak = peak_frequency(CFG, "x")
    assert peak == pytest.approx(1.5 * math.sqrt(1.0 - 1.0 / 800.0), rel=1e-15)
    assert peak < 1.5
    assert transfer_amplitude(CFG, "x", peak) > transfer_amplitude(CFG, "x", 1.5)


def test_response_rises_to_the_peak_then_falls():
    peak = peak_frequency(CFG, "x")
    below = [transfer_amplitude(CFG, "x", f) for f in np.linspace(0.1, peak, 60)]
    above = [transfer_amplitude(CFG, "x", f) for f in np.linspace(peak, 3.0, 60)]
    assert np.all(np.diff(below) > 0)
    assert np.all(np.diff(above) < 0)


def test_settle_time():
    assert settle_time(CFG, "x") == pytest.approx(20.0 / (math.pi * 1.5), rel=1e-15)
    assert settle_time(CFG, "y") == pytest.approx(20.0 / math.pi, rel=1e-15)


def test_axes_are_independent():
    cfg = ScannerConfig(fx_res=2.0, fy_res=1.0, qx=10.0, qy=40.0)
    assert cfg.axis("x") == (2.0, 10.0)
    assert cfg.axis("y") == (1.0, 40.0)
    assert transfer_amplitude(cfg, "x", 1e-9) == pytest.approx(0.1, rel=1e-9)
    assert transfer_amplitude(cfg, "y", 1e-9) == pytest.approx(0.025, rel=1e-9)


def test_axis_name_is_validated():
    with pytest.raises(DomainError):
        CFG.axis("z")


@pytest.mark.parametrize("f", [0.0, -1.0, math.inf, math.nan])
def test_drive_frequency_must_be_positive_finite(f):
    with pytest.raises(DomainError):
        transfer_amplitude(CFG, "x", f)


def test_config_validation():
    with pytest.raises(ConfigError):
        ScannerConfig(fx_res=0.0)
    with pytest.raises(ConfigError):
        ScannerConfig(fx_res=1.5, fy_res=-1.0)
    for q in ("qx", "qy"):                       # Q >= 1
        with pytest.raises(ConfigError, match=f"^{q} must be finite and at least 1, got 0.5$"):
            ScannerConfig(fx_res=1.5, **{q: 0.5})
    with pytest.raises(ConfigError):
        ScannerConfig(fx_res=math.nan)
    with pytest.raises(ConfigError):
        ScannerConfig(fx_res="fast")  # type: ignore[arg-type]


def test_normalized_ratio_bounds():
    assert ScannerConfig.normalized(1.0).fx_res == 1.0
    assert ScannerConfig.normalized(3.0).fx_res == 3.0
    with pytest.raises(ConfigError):
        ScannerConfig.normalized(0.9)
    with pytest.raises(ConfigError):
        ScannerConfig.normalized(3.1)


def test_dict_round_trip():
    cfg = ScannerConfig(fx_res=2.2, fy_res=1.1, qx=15.0, qy=25.0)
    assert ScannerConfig.from_dict(cfg.to_dict()) == cfg
    assert ScannerConfig.from_dict({"fx_res": 2.0}).qy == 20.0  # defaults fill in
    with pytest.raises(ConfigError):
        ScannerConfig.from_dict({"qx": 20.0})
    with pytest.raises(ConfigError):
        ScannerConfig.from_dict({"fx_res": "quick"})
    for field in ("fx_res", "fy_res", "qx", "qy"):   # true is not 1.0
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            ScannerConfig.from_dict(dict(cfg.to_dict(), **{field: True}))


def test_from_dict_takes_absent_fields_from_the_dataclass(with_defaults):
    # from_dict passes only the fields a record holds; a subclass's defaults show it
    config = with_defaults(ScannerConfig, fy_res=1.25, qx=5.0, qy=4.0)
    assert config.from_dict({"fx_res": 2.0}) == config(2.0, 1.25, 5.0, 4.0)
    assert config.from_dict({"fx_res": 2.0, "qy": 30.0}) == config(2.0, 1.25, 5.0, 30.0)


@pytest.mark.parametrize("record, message", [
    ({}, "scanner config missing field 'fx_res'"),
    ({"qx": 20.0}, "scanner config missing field 'fx_res'"),
    ({"fx_res": None}, "fx_res must be a number, got None"),
    ({"fx_res": 1.5, "fy_res": None}, "fy_res must be a number, got None"),
    ({"fx_res": 1.5, "qy": None}, "qy must be a number, got None"),
])
def test_a_missing_or_null_scanner_field_is_named(record, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ScannerConfig.from_dict(record)


def test_response_stays_finite_where_a_square_leaves_the_float_range():
    huge_q = ScannerConfig(fx_res=1.0, qx=6.4e161)
    assert transfer_amplitude(huge_q, "x", 1.0) == pytest.approx(1.0, rel=1e-12)   # (u/q)**2 -> 0
    tiny_res = ScannerConfig(fx_res=1e-118, qx=20.0)
    u = 1.46 / 1e-118
    assert transfer_amplitude(tiny_res, "x", 1.46) == pytest.approx(1.0 / (20.0 * u * u), rel=1e-12)


def test_from_dict_rejects_a_record_that_is_not_an_object():
    with pytest.raises(ConfigError, match="malformed scanner config"):
        ScannerConfig.from_dict([{"fx_res": 2.0}])
    with pytest.raises(ConfigError, match="missing field 'fx_res'"):
        ScannerConfig.from_dict({"qx": 20.0})
