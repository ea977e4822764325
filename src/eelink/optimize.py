"""Threshold optimization, regime boundary search, and capacity inversion.

The energy efficiency rises with the gating threshold exactly while the
trend indicator stays positive, so the optimal threshold is the indicator's
sign change. The positive region shrinks toward zero as the QoS exponent
grows; a run whose indicator is not positive at the gating resolution is
classified as the ungated regime (threshold zero), which is also the
predicate the exponent-boundary search bisects on.

All three searches share one bracketed root finder. The two threshold
searches hand it the analytic slope of the trend indicator or of the
effective capacity, which costs no further incomplete gamma or quadrature,
so most of its steps are safeguarded Newton steps; the boundary search has
no slope in theta and halves. The threshold searches grow their bracket
1, 2, 4, ... up to 64 and narrow it to a width of 1e-8; these tolerances
are fixed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .analysis import (
    METHOD_CLOSED,
    QUANTITIES,
    QosSpec,
    _modes,
    _point,
    _with_slope,
    ee_trend,
    effective_capacity,
    energy_efficiency,
)
from .channel import SystemParams
from .errors import (
    BracketError,
    DomainError,
    InfeasibleRateError,
    PreconditionError,
    _is_integer,
    _nonnegative,
    _real,
)

# Thresholds below this scale are operationally indistinguishable from no
# gating: for reference-class links the EE gain over a zero threshold is a
# few parts in 10^6 there, far below what sweeps or measurements resolve.
# The exponent boundary is where the trend indicator at this scale changes
# sign, the same test the optimizer applies to call a run gated.
GATING_RESOLUTION = 1.8e-3

_EPSILON = 1e-8
_GAMMA0_CAP = 64.0
# A search costs at most this many evaluations more than bisection. Newton
# steps that approach the root from one side leave the bracket wide until
# the closing probe; on random links across the documented domain that
# spent up to 7 of them, so a bound of 8 cut none of those searches short.
_EXTRA_EVALS = 8


class Regime(enum.Enum):
    GATED = "gated"        # interior optimum; gating improves EE
    UNGATED = "ungated"    # best threshold is zero at the stated resolution


@dataclass(frozen=True)
class OptimumResult:
    """Outcome of the threshold search. bracket is the interval the search
    started from: the trend is positive at its lower end and not at its
    upper end. iterations counts every trend evaluation made, the check at
    GATING_RESOLUTION and the bracket's growth included."""

    regime: Regime
    gamma0_opt: float
    ee_opt: float
    ee_baseline: float
    iterations: int
    bracket: tuple[float, float]


def _search(
    f: Callable[[float], tuple[float, float | None]], lo: float, hi: float, width: float
) -> tuple[float, float, int]:
    """Narrow [lo, hi] until it is at most `width` wide, keeping f > 0 at lo
    and f <= 0 at hi; returns the final (lo, hi) and the number of
    evaluations of f.

    f returns its value and its slope. From each point the search takes the
    Newton step where it lands inside the bracket and is at most half the
    step before last (the safeguard of rtsafe, Numerical Recipes 3rd ed.,
    9.4), and halves the bracket otherwise, or where f gives no slope. A
    Newton step toward the root shorter than half the width becomes a probe
    0.75 width from the point, which closes the bracket when the root lies
    within it. Any step but a halving is taken only while halvings alone
    could still finish within _EXTRA_EVALS evaluations more than bisection
    needs, as in the ITP method (Oliveira & Takahashi, ACM TOMS 47, 2020):
    where f is flat to within its rounding, Newton steps and probes go
    astray, and this bound holds them in.
    """
    budget = _EXTRA_EVALS + math.ceil(math.log2(max(hi - lo, width) / width))
    evals = 0
    x = 0.5 * (lo + hi)
    step = before = hi - lo  # the last two step lengths
    while hi - lo > width:
        value, slope = f(x)
        evals += 1
        if value > 0.0:
            lo, inward = x, 1.0  # the root lies this way from x
        else:
            hi, inward = x, -1.0
        newton = -value / slope if slope else math.nan
        if not hi - lo <= width * 2.0 ** (budget - evals - 1):
            target = 0.5 * (lo + hi)
        elif 0.0 <= newton * inward < 0.5 * width:
            target = x + inward * 0.75 * width
        elif lo < x + newton < hi and abs(newton) <= 0.5 * before:
            target = x + newton
        else:
            target = 0.5 * (lo + hi)
        before, step = step, abs(target - x)
        x = target
    return lo, hi, evals


def _grow_bracket(predicate: Callable[[float], bool], what: str) -> tuple[float, int]:
    """First of 1, 2, 4, ..., _GAMMA0_CAP where the predicate fails, and the
    number of points tried; raises BracketError if it still holds at the
    cap."""
    upper, tried = 1.0, 1
    while predicate(upper):
        if upper >= _GAMMA0_CAP:
            raise BracketError(f"{what} at gamma0 = {_GAMMA0_CAP}")
        upper, tried = min(2.0 * upper, _GAMMA0_CAP), tried + 1
    return upper, tried


def find_optimal_threshold(params: SystemParams, qos: QosSpec) -> OptimumResult:
    """EE-optimal gating threshold: the sign change of the trend indicator.

    A run whose indicator is not positive at GATING_RESOLUTION is the
    ungated regime, with a zero threshold and no search. Otherwise the upper
    end is grown geometrically from 1 until the indicator is not positive,
    and the search narrows [GATING_RESOLUTION, upper end] on the indicator
    and its slope.
    """
    ee_baseline = energy_efficiency(params, qos, 0.0, METHOD_CLOSED)

    def trend(g: float) -> tuple[float, float | None]:
        return _with_slope(params, qos.theta, g, "G", METHOD_CLOSED)

    # The gating check and the bracket's growth read only the sign, so they
    # evaluate the trend without its slope.
    def gated(g: float) -> bool:
        return ee_trend(params, qos, g, METHOD_CLOSED) > 0.0

    if not gated(GATING_RESOLUTION):
        bracket = (0.0, GATING_RESOLUTION)
        return OptimumResult(Regime.UNGATED, 0.0, ee_baseline, ee_baseline, 1, bracket)
    upper, tried = _grow_bracket(gated, "trend indicator still positive")
    bracket = (GATING_RESOLUTION, upper)
    lower, upper, evals = _search(trend, *bracket, _EPSILON)
    mid = 0.5 * (lower + upper)
    ee_opt = energy_efficiency(params, qos, mid, METHOD_CLOSED)
    return OptimumResult(Regime.GATED, mid, ee_opt, ee_baseline, 1 + tried + evals, bracket)


def find_theta_threshold(params: SystemParams, theta_lo: float, theta_hi: float) -> float:
    """QoS-exponent boundary between the gated and ungated regimes.

    The boundary is where the trend indicator at the gating resolution
    changes sign, the test find_optimal_threshold applies to call a run
    gated. Bisects in log theta to relative width 1e-4, since the indicator
    has no closed-form slope in theta; it must be positive at theta_lo and
    not at theta_hi.
    """
    if not 0.0 < theta_lo < theta_hi:
        raise DomainError("need 0 < theta_lo < theta_hi")
    lo, hi = math.log(theta_lo), math.log(theta_hi)
    # Every theta tried lies between exp(lo) and exp(hi), so once QosSpec has
    # passed both ends it would pass them all, and one set of modes at the
    # gating resolution serves every evaluation.
    QosSpec(theta=math.exp(lo))
    modes = _modes(params, GATING_RESOLUTION)

    def trend(log_theta: float) -> tuple[float, None]:
        theta = math.exp(log_theta)
        return _point(params, theta, GATING_RESOLUTION, "G", METHOD_CLOSED, modes), None

    if not trend(lo)[0] > 0.0:
        raise PreconditionError(f"no gated regime at theta_lo = {theta_lo}")
    QosSpec(theta=math.exp(hi))
    if trend(hi)[0] > 0.0:
        raise PreconditionError(f"still gated at theta_hi = {theta_hi}")

    lo, hi, _ = _search(trend, lo, hi, math.log1p(1e-4))
    return 0.5 * (math.exp(lo) + math.exp(hi))


def invert_effective_capacity(
    params: SystemParams, qos: QosSpec, mu: float, method: str = METHOD_CLOSED
) -> float:
    """Largest threshold at which the effective capacity still reaches the
    arrival rate mu (bits/s). The capacity is strictly decreasing in the
    threshold, so its crossing of mu is bracketed from a zero threshold and
    narrowed on the capacity and its slope."""
    mu = _real(mu, "mu")
    if not mu > 0.0:  # NaN included
        raise DomainError("mu must be positive")
    capacity_at_zero = effective_capacity(params, qos, 0.0, method)
    if mu > capacity_at_zero:
        raise InfeasibleRateError(
            f"arrival rate {mu:.6g} bits/s exceeds the zero-threshold capacity "
            f"{capacity_at_zero:.6g} bits/s"
        )

    def excess(g: float) -> tuple[float, float | None]:
        capacity, slope = _with_slope(params, qos.theta, g, "alpha", method)
        return capacity - mu, slope

    hi, _ = _grow_bracket(lambda g: excess(g)[0] > 0.0, "capacity still above mu")
    lo, hi, _ = _search(excess, 0.0, hi, _EPSILON)
    return 0.5 * (lo + hi)


def sweep(
    params: SystemParams,
    thetas: Iterable[float],
    gamma0_range: tuple[float, float],
    quantity: str,
    steps: int,
    method: str = METHOD_CLOSED,
) -> list[tuple[float, float, float]]:
    """Dense (theta, gamma0, value) grid, row-major with theta outermost.

    quantity is one of EE, alpha, G, F (energy efficiency, effective
    capacity, trend indicator, service decay moment). Every argument is
    checked before any point is evaluated: thetas nonempty and each a valid
    QoS exponent, gamma0_range finite, nonnegative and increasing, steps an
    integer (not a bool) of at least 2. thetas may be any iterable, a
    generator included; it is read once. Each value is, bit for bit, what
    energy_efficiency, effective_capacity, ee_trend or service_mgf returns
    at that point, and the first point where that call raises raises the
    same error. Each gamma0's mode probabilities and power are computed
    once for all thetas, and each point computes its service moment once.
    """
    # QosSpec refuses a bad theta and holds a good one as a Python float.
    thetas = [] if thetas is None else [QosSpec(theta=theta).theta for theta in thetas]
    if not thetas:
        raise DomainError("thetas must be nonempty")
    lo, hi = (_real(end, "gamma0_range end") for end in gamma0_range)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"gamma0_range must be finite and increasing, got {gamma0_range}")
    if quantity not in QUANTITIES:
        raise DomainError(f"unknown quantity {quantity!r}; expected EE, alpha, G, or F")
    if not _is_integer(steps):
        raise DomainError(f"steps must be an int of at least 2, got {steps!r}")
    steps = int(steps)
    if steps < 2:
        raise DomainError(f"steps must be an int of at least 2, got {steps!r}")
    _nonnegative(lo, "gamma0")  # every grid point is at least lo

    # numpy.linspace's grid, point for point: i * step + lo, ending on hi.
    step = (hi - lo) / (steps - 1)
    gammas = [i * step + lo for i in range(steps - 1)] + [hi]
    modes = [_modes(params, g) for g in gammas]
    return [
        (theta, g, _point(params, theta, g, quantity, method, m))
        for theta in thetas
        for g, m in zip(gammas, modes)
    ]
