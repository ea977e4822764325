"""Exception types shared across the toolkit, and the named domain rules
every input passes: one rule per kind of input, each returning the value as
a Python float (a numpy float32 would pull the arithmetic down to float32)
or raising DomainError with the input's name. NaN fails every comparison
and a string fails them with a bare TypeError, so a range check alone
cannot refuse either; the rules can."""

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


def _finite(value, name: str) -> float:
    # value as a finite Python float, or DomainError.
    number = _real(value, name)
    if not math.isfinite(number):
        raise DomainError(f"{name} must be finite, got {value}")
    return number


def _positive(value, name: str) -> float:
    # value as a Python float in (0, inf), or DomainError.
    number = _finite(value, name)
    if not number > 0.0:
        raise DomainError(f"{name} must be positive, got {number}")
    return number


def _nonnegative(value, name: str) -> float:
    # value as a Python float in [0, inf), or DomainError: every threshold's
    # rule, with one message for its whole domain, NaN and infinities included.
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
