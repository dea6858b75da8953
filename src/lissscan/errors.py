"""Exception types, and the record-field helpers, shared across the toolkit."""


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


def field_message(record: str, exc: Exception) -> str:
    """Message for a record whose field is missing (KeyError) or malformed."""
    if isinstance(exc, KeyError):
        return f"{record} missing field {exc}"
    return f"malformed {record}: {exc}"


def record_value(value, name: str, convert=float):
    """convert(value) for a numeric record field. A boolean is refused, and so
    is a non-integral number for an int field, which int() would truncate."""
    if isinstance(value, bool) or (convert is int and isinstance(value, float)
                                   and not value.is_integer()):
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return convert(value)
