"""Threshold optimization, regime boundary search, and capacity inversion.

The energy efficiency rises with the gating threshold exactly while the
trend indicator stays positive, so the optimal threshold is the indicator's
sign change and plain bisection finds it. The positive region shrinks toward
zero as the QoS exponent grows; once the optimal threshold falls below the
gating resolution the run is classified as the ungated regime (threshold
zero), which is also the predicate the exponent-boundary search bisects on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .analysis import (
    METHOD_CLOSED,
    QosSpec,
    ee_trend,
    effective_capacity,
    energy_efficiency,
    service_mgf,
)
from .channel import SystemParams
from .errors import (
    BracketError,
    DomainError,
    InfeasibleRateError,
    PreconditionError,
    _require_finite,
)

# Thresholds below this scale are operationally indistinguishable from no
# gating: for reference-class links the EE gain over a zero threshold is a
# few parts in 10^6 there, far below what sweeps or measurements resolve.
# The exponent boundary is where the trend indicator at this scale changes
# sign, the same test the optimizer applies to call a run gated.
GATING_RESOLUTION = 1.8e-3


class Regime(enum.Enum):
    GATED = "gated"        # interior optimum; gating improves EE
    UNGATED = "ungated"    # best threshold is zero at the stated resolution


@dataclass(frozen=True)
class SearchSettings:
    """Bisection tolerance and bracket limits for the threshold searches."""

    epsilon: float = 1e-8
    gamma0_cap: float = 64.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.epsilon <= 0.0:
            raise DomainError("epsilon must be positive")
        if self.gamma0_cap <= 0.0:
            raise DomainError("gamma0_cap must be positive")


@dataclass(frozen=True)
class OptimumResult:
    """Outcome of the threshold search; bracket is the initial interval the
    bisection started from (its upper end already has a negative trend)."""

    regime: Regime
    gamma0_opt: float
    ee_opt: float
    ee_baseline: float
    iterations: int
    bracket: tuple[float, float]


def _bisect(
    predicate: Callable[[float], bool], lo: float, hi: float, width: float
) -> tuple[float, float, int]:
    """Halve [lo, hi] until it is at most `width` wide, keeping the predicate
    true at lo and false at hi; returns the final (lo, hi) and the number of
    halvings. Raises BracketError once the midpoint rounds onto an end, which
    happens only when `width` is below the float spacing there."""
    iterations = 0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            raise BracketError(
                f"bisection reached adjacent floats at width {hi - lo:.3g}, above {width:.3g}"
            )
        if predicate(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return lo, hi, iterations


def _grow_bracket(predicate: Callable[[float], bool], cap: float, what: str) -> float:
    """First of 1, 2, 4, ... (clipped to cap) where the predicate fails;
    raises BracketError if it still holds at cap."""
    upper = 1.0
    while predicate(upper):
        if upper >= cap:
            raise BracketError(f"{what} at gamma0_cap = {cap}")
        upper = min(2.0 * upper, cap)
    return upper


def find_optimal_threshold(
    params: SystemParams, qos: QosSpec, settings: SearchSettings | None = None
) -> OptimumResult:
    """EE-optimal gating threshold by bisection on the trend indicator.

    The upper bracket is grown geometrically from 1 until the indicator is
    negative; the bracket from 0 is then halved, moving the upper end
    whenever the midpoint indicator is negative or zero. Roots below
    GATING_RESOLUTION are reported as the ungated regime with a zero
    threshold.
    """
    s = settings if settings is not None else SearchSettings()
    ee_baseline = energy_efficiency(params, qos, 0.0, METHOD_CLOSED)

    def rising(g: float) -> bool:
        return ee_trend(params, qos, g) > 0.0

    bracket = (0.0, _grow_bracket(rising, s.gamma0_cap, "trend indicator still positive"))
    lower, upper, iterations = _bisect(rising, *bracket, s.epsilon)
    mid = 0.5 * (lower + upper)

    if mid < GATING_RESOLUTION:
        return OptimumResult(Regime.UNGATED, 0.0, ee_baseline, ee_baseline, iterations, bracket)
    ee_opt = energy_efficiency(params, qos, mid, METHOD_CLOSED)
    return OptimumResult(Regime.GATED, mid, ee_opt, ee_baseline, iterations, bracket)


def find_theta_threshold(params: SystemParams, theta_lo: float, theta_hi: float) -> float:
    """QoS-exponent boundary between the gated and ungated regimes.

    The boundary is where the trend indicator at the gating resolution
    changes sign, the test find_optimal_threshold applies to call a run
    gated. Bisects in log theta to relative width 1e-4; the indicator must
    be positive at theta_lo and not at theta_hi.
    """
    if not 0.0 < theta_lo < theta_hi:
        raise DomainError("need 0 < theta_lo < theta_hi")

    def gated(log_theta: float) -> bool:
        return ee_trend(params, QosSpec(theta=math.exp(log_theta)), GATING_RESOLUTION) > 0.0

    lo, hi = math.log(theta_lo), math.log(theta_hi)
    if not gated(lo):
        raise PreconditionError(f"no gated regime at theta_lo = {theta_lo}")
    if gated(hi):
        raise PreconditionError(f"still gated at theta_hi = {theta_hi}")

    lo, hi, _ = _bisect(gated, lo, hi, math.log1p(1e-4))
    return 0.5 * (math.exp(lo) + math.exp(hi))


def invert_effective_capacity(
    params: SystemParams,
    qos: QosSpec,
    mu: float,
    settings: SearchSettings | None = None,
    method: str = METHOD_CLOSED,
) -> float:
    """Largest threshold at which the effective capacity still reaches the
    arrival rate mu (bits/s). The capacity is strictly decreasing in the
    threshold, so bisection applies directly."""
    s = settings if settings is not None else SearchSettings()
    if not mu > 0.0:  # NaN included
        raise DomainError("mu must be positive")
    capacity_at_zero = effective_capacity(params, qos, 0.0, method)
    if mu > capacity_at_zero:
        raise InfeasibleRateError(
            f"arrival rate {mu:.6g} bits/s exceeds the zero-threshold capacity "
            f"{capacity_at_zero:.6g} bits/s"
        )

    def carries(g: float) -> bool:
        return effective_capacity(params, qos, g, method) > mu

    hi = _grow_bracket(carries, s.gamma0_cap, "capacity still above mu")
    lo, hi, _ = _bisect(carries, 0.0, hi, s.epsilon)
    return 0.5 * (lo + hi)


def sweep(
    params: SystemParams,
    thetas: list[float],
    gamma0_range: tuple[float, float],
    quantity: str,
    steps: int,
    method: str = METHOD_CLOSED,
) -> list[tuple[float, float, float]]:
    """Dense (theta, gamma0, value) grid, row-major with theta outermost.

    quantity is one of EE, alpha, G, F (energy efficiency, effective
    capacity, trend indicator, service decay moment).
    """
    if not thetas:
        raise DomainError("thetas must be nonempty")
    if steps < 2:
        raise DomainError("steps must be at least 2")
    lo, hi = gamma0_range
    if not lo < hi:
        raise DomainError("gamma0_range must be increasing")

    def value_at(qos: QosSpec, g: float) -> float:
        if quantity == "EE":
            return energy_efficiency(params, qos, g, method)
        if quantity == "alpha":
            return effective_capacity(params, qos, g, method)
        if quantity == "G":
            return ee_trend(params, qos, g, method)
        if quantity == "F":
            return service_mgf(params, qos, g, method)
        raise DomainError(f"unknown quantity {quantity!r}; expected EE, alpha, G, or F")

    # numpy.linspace's grid, point for point: i * step + lo, ending on hi.
    step = (hi - lo) / (steps - 1)
    gammas = [i * step + lo for i in range(steps - 1)] + [float(hi)]
    rows: list[tuple[float, float, float]] = []
    for theta in thetas:
        qos = QosSpec(theta=theta)
        for g in gammas:
            rows.append((theta, g, value_at(qos, g)))
    return rows
