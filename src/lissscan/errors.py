"""Exception types, and the value checks, shared across the toolkit."""

import math
from contextlib import contextmanager


class LissscanError(Exception):
    """Base class for every error raised by this package."""


class DomainError(LissscanError):
    """An argument lies outside the domain an operation is defined on."""


class ConfigError(DomainError):
    """Malformed scanner configuration."""


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


_SHOWN = 64    # characters of a refused value that its message shows


def value_text(value) -> str:
    """repr(value) for a message, cut after _SHOWN characters with a marker."""
    try:
        text = repr(value)
    except ValueError:      # an int past the interpreter's digit limit for str()
        return f"an integer of {value.bit_length()} bits"
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}... ({len(text)} characters)"


def record_value(value, name: str, convert=float):
    """convert(value) for a numeric record field. A boolean, numpy's too, is
    refused, as is a non-integral number for an int field (int() truncates)."""
    if isinstance(value, bool) or getattr(value, "dtype", None) == bool or (
            convert is int and isinstance(value, float) and not value.is_integer()):
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"{name} must be {kind}, got {value_text(value)}")
    return convert(value)


def number_value(value, name: str, low=-math.inf, high=math.inf, convert=float, *,
                 positive: bool = False, error: type[LissscanError] = DomainError):
    """convert(value), a float or an int, which must be finite and in [low, high],
    or in (0, high] when positive; error otherwise. As record_value does, a
    boolean is refused, and so is a non-integral number for an int (7.0 reads
    as 7)."""
    try:
        number = record_value(value, name, convert)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if convert is int else "a number"
        raise error(f"{name} must be {kind}, got {value_text(value)}") from None
    if (0 < number if positive else low <= number) and number <= high and abs(number) < math.inf:
        return number
    if positive:
        limit = "positive and finite"
    elif high < math.inf:
        limit = f"between {low} and {high}"
    elif convert is int:
        limit = f"at least {low}"
    elif low == 0:
        limit = "finite and non-negative"
    else:
        limit = "finite" if low == -math.inf else f"finite and at least {low}"
    raise error(f"{name} must be {limit}, got {value_text(number)}")
