"""Exception types shared across the toolkit, and the finiteness check every
input dataclass applies."""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """The gamma function was evaluated at zero or a negative integer."""


class QuadratureError(RuntimeError):
    """Adaptive integration exhausted its budget without meeting tolerance."""


class BracketError(RuntimeError):
    """A root or optimum search could not establish a valid bracket."""


class PreconditionError(ValueError):
    """A search predicate does not hold at the supplied interval endpoints."""


class InfeasibleRateError(ValueError):
    """The requested arrival rate exceeds what the link can sustain."""


class QueueOverflowError(RuntimeError):
    """The simulated queue exceeded the stability guard."""


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


def _require_finite(obj) -> None:
    """Raise DomainError if a float field of the dataclass obj is NaN or
    infinite. NaN fails every comparison, so range checks alone let it in."""
    # The class's field table: vars(obj) would give obj a real __dict__ and
    # slow every later attribute read on it (the hot loops read params and
    # qos), and dataclasses.fields allocates on every call.
    for name in obj.__dataclass_fields__:
        value = getattr(obj, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
