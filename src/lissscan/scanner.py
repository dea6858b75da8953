"""Harmonic-oscillator model of a biaxial resonant scanner.

Amplitude response only: each axis behaves as a driven second-order
oscillator whose response is normalized to 1 when driven exactly at its
resonant frequency, rolling off on both sides and settling to 1/Q at DC.
Configs may carry frequencies in Hz or in normalized units (y-axis scan
cycles); every derived quantity keeps the units of its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError, number_value, record_errors, value_text

AXES = ("x", "y")


@dataclass(frozen=True)
class ScannerConfig:
    """Resonant frequency and quality factor for each scanning axis."""

    fx_res: float
    fy_res: float = 1.0
    qx: float = 20.0
    qy: float = 20.0

    def __post_init__(self) -> None:
        for name, low in (("fx_res", 0), ("fy_res", 0), ("qx", 1), ("qy", 1)):   # f > 0, Q >= 1
            object.__setattr__(self, name, number_value(getattr(self, name), name, low,
                                                        positive=not low, error=ConfigError))

    @classmethod
    def normalized(cls, r: float) -> "ScannerConfig":
        """Config in normalized units: y resonance fixed at 1, x at r in [1, 3],
        Q 20 on both axes."""
        return cls(fx_res=number_value(r, "normalized resonance ratio", 1, 3, error=ConfigError))

    def axis(self, axis: str) -> tuple[float, float]:
        """(resonant frequency, quality factor) of one axis."""
        if axis == "x":
            return self.fx_res, self.qx
        if axis == "y":
            return self.fy_res, self.qy
        raise DomainError(f"axis must be 'x' or 'y', got {value_text(axis)}")

    def to_dict(self) -> dict:
        return {"fx_res": self.fx_res, "fy_res": self.fy_res, "qx": self.qx, "qy": self.qy}

    @classmethod
    def from_dict(cls, data: dict) -> "ScannerConfig":
        with record_errors("scanner config", ConfigError):
            return cls(fx_res=data["fx_res"], fy_res=data.get("fy_res", 1.0),
                       qx=data.get("qx", 20.0), qy=data.get("qy", 20.0))


def transfer_amplitude(config: ScannerConfig, axis: str, f: float) -> float:
    """Amplitude response of one axis at drive frequency f.

    Normalized so the on-resonance response is exactly 1; the DC limit
    is 1/Q.
    """
    f_res, q = config.axis(axis)
    u = number_value(f, "drive frequency", positive=True) / f_res
    try:
        return 1.0 / (q * math.sqrt((u * u - 1.0) ** 2 + (u / q) ** 2))
    except (OverflowError, ZeroDivisionError):    # a square leaves the float range
        return 1.0 / (q * math.hypot(u * u - 1.0, u / q))


def settle_time(config: ScannerConfig, axis: str) -> float:
    """Time for one axis to settle after an actuation change: Q / (pi * f_res)."""
    f_res, q = config.axis(axis)
    return q / (math.pi * f_res)


def peak_frequency(config: ScannerConfig, axis: str) -> float:
    """Drive frequency of the true amplitude maximum, slightly below resonance."""
    f_res, q = config.axis(axis)
    return f_res * math.sqrt(1.0 - 1.0 / (2.0 * q * q))
