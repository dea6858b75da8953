"""Exception types, and the value checks, shared across the toolkit."""

import math
from contextlib import contextmanager


class LissscanError(Exception):
    """Base class for every error raised by this package."""


class DomainError(LissscanError):
    """An argument lies outside the domain an operation is defined on."""


class ConfigError(DomainError):
    """Malformed scanner configuration."""


class NoFeasibleDesign(LissscanError):
    """Frequency search exhausted its window without a feasible candidate."""


class DegeneratePattern(LissscanError):
    """Sampled pattern has zero extent on at least one axis."""


class InvalidParams(LissscanError):
    """Multi-tone parameter set violates its constraints."""


class OptimizationFailed(LissscanError):
    """Optimizer diverged; carries the loss trace seen so far."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class UndefinedPhase(LissscanError):
    """Quadrature pair is the zero vector, so its angle is undefined."""


class IllConditioned(LissscanError):
    """Linear phase-recovery system is singular or near-singular."""


class WeightMapError(LissscanError):
    """Weight-map file could not be ingested."""


@contextmanager
def record_errors(record: str, error: type[LissscanError]):
    """Re-raise a missing (KeyError) or malformed field read inside as error."""
    try:
        yield
    except KeyError as exc:
        raise error(f"{record} missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise error(f"malformed {record}: {exc}") from exc


def record_value(value, name: str, convert=float):
    """convert(value) for a numeric record field. A boolean is refused, and so
    is a non-integral number for an int field, which int() would truncate."""
    if isinstance(value, bool) or (convert is int and isinstance(value, float)
                                   and not value.is_integer()):
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return convert(value)


def finite_non_negative(value, name: str) -> float:
    """float(value), which must be finite and non-negative; DomainError otherwise."""
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and non-negative, got {value}")
    return value


def positive_finite(value, name: str) -> float:
    """float(value), which must be positive and finite; DomainError otherwise."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")
    return value
