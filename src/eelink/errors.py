"""Exception types shared across the toolkit, the finiteness check every
input dataclass applies, and the domain check of every threshold."""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


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
    """Raise DomainError unless each float field of the dataclass obj holds
    a finite real number that is not a bool, or None where its annotation
    allows None, and store it as a Python float (a numpy float32 would pull
    the arithmetic down to float32). NaN fails every comparison and a
    string fails them with a bare TypeError, so range checks alone cannot
    refuse either."""
    # The class's field table: vars(obj) would give obj a real __dict__ and
    # slow every later attribute read on it (the hot loops read params and
    # qos), and dataclasses.fields allocates on every call. Every dataclass
    # that calls this is defined under `from __future__ import annotations`,
    # so the annotations are strings.
    for name, field in obj.__dataclass_fields__.items():
        if field.type != "float" and field.type != "float | None":
            continue
        value = getattr(obj, name)
        if value is None and field.type == "float | None":
            continue
        number = _real(value, name)
        if not math.isfinite(number):
            raise DomainError(f"{name} must be finite, got {value}")
        object.__setattr__(obj, name, number)


def _real(value, name: str) -> float:
    # value as a Python float, an int past the float range as an infinity,
    # or DomainError unless it is a real number. bool is an int, but True is
    # a slip. numbers, which numpy scalars need, is imported only for a
    # value that is neither float nor int. A Python float, by far the most
    # common value, returns at once: the per-point entry points call this.
    if type(value) is float:
        return value
    if isinstance(value, (float, int)):
        real = not isinstance(value, bool)
    else:
        import numbers

        real = isinstance(value, numbers.Real)
    if not real:
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _nonnegative(value, name: str) -> float:
    # value as a Python float in [0, inf), or DomainError. A numpy float32
    # would otherwise pull the arithmetic down to float32.
    number = _real(value, name)
    if not 0.0 <= number < math.inf:  # NaN included
        raise DomainError(f"{name} must be nonnegative and finite, got {number}")
    return number


def _is_integer(value) -> bool:
    # An int or a numpy integer; bool is an int, but seed=True is a slip.
    if isinstance(value, int):
        return not isinstance(value, bool)
    import numbers

    return isinstance(value, numbers.Integral)
