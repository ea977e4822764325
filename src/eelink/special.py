"""Gamma-family special functions and double-exponential quadrature.

The upper incomplete gamma function here accepts negative shape parameters,
which the closed-form link formulas produce once the QoS exponent gets large.
It has one route table: orders of 0.01 and above take the standard series /
continued-fraction split; lower orders take the continued fraction once the
argument reaches 1.5, and otherwise one downward recurrence from an anchor in
[0.01, 1.01), with the exponential integral at orders within 1e-8 of 0.
The series and the fraction run in the innermost loops of every closed-form
point, so their stopping tests are plain comparisons: the series only ever
sums positive terms. At an integer shape the regularized tail that the gain
distribution needs is a finite sum, which `channel.tail_probability` takes
without calling this module.

`integrate` is the exp-sinh double-exponential rule of Takahasi & Mori
(Publ. RIMS 9, 1974; Mori & Sugihara, J. Comput. Appl. Math. 127, 2001) on
[lo, inf), the only range the link integrals need, with the step halved until
two successive sums agree. Its node and weight tables are built once, on first
use, and the integrand is evaluated on a whole level of nodes at a time,
except that levels 0 and 1 share one call: the first stopping test needs both,
and one call on their 289 nodes costs little more than one on 145.
Only the quadrature needs numpy, which it imports when first called, so the
gamma functions run without it. All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, QuadratureError

if TYPE_CHECKING:
    import numpy as np

_EULER = 0.5772156649015329
_EPS = sys.float_info.epsilon
_TERM_EPS = 1e-15          # series / continued-fraction termination
_MAX_TERMS = 10_000
_DE_LEVELS = 5             # step halvings held by the quadrature tables
_DE_REL_TOL = 1e-10        # quadrature stops once successive sums agree to
_DE_ABS_TOL = 1e-14        # max(_DE_ABS_TOL, _DE_REL_TOL * |sum|)


def _lower_series_scaled(v: float, z: float) -> float:
    # S such that lower_gamma(v, z) = z^v e^-z * S. Only called with
    # v >= 0.01 and 0 < z < v + 1, so every term is positive.
    term = 1.0 / v
    total = term
    for k in range(1, _MAX_TERMS):
        term *= z / (v + k)
        total += term
        if term <= _TERM_EPS * total:
            return total
    raise QuadratureError(f"incomplete gamma series stalled at v={v}, z={z}")


def _upper_cf_scaled(v: float, z: float) -> float:
    # C such that Gamma(v, z) = z^v e^-z * C, by modified Lentz iteration.
    # Converges for z > 0; efficient once z >= v + 1.
    # Every call has b >= 2 (z >= v + 1, or z >= 1.5 with v < 0.01), so an
    # update that does not vanish lies far above tiny, and Lentz's guard
    # against |d|, |c| < tiny comes down to replacing an exact 0.
    tiny = 1e-300
    b = z + 1.0 - v
    c = 1.0 / tiny
    d = 1.0 / (b or tiny)
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - v)
        b += 2.0
        d = 1.0 / (an * d + b or tiny)
        c = b + an / c or tiny
        delta = d * c
        h *= delta
        if -_TERM_EPS <= delta - 1.0 <= _TERM_EPS:
            return h
    raise QuadratureError(f"incomplete gamma fraction stalled at v={v}, z={z}")


def _expint_e1(z: float) -> float:
    # Gamma(0, z), the exponential integral E1, by its power series. Only the
    # recurrence in upper_incomplete_gamma calls it, always with z < 1.5.
    total = -_EULER - math.log(z)
    term = 1.0
    for k in range(1, _MAX_TERMS):
        term *= -z / k
        contrib = -term / k
        total += contrib
        if abs(contrib) <= _TERM_EPS * abs(total):
            return total
    raise QuadratureError(f"E1 series stalled at z={z}")


def upper_incomplete_gamma(v: float, z: float) -> float:
    """Upper incomplete gamma Gamma(v, z) = integral of w^(v-1) e^-w over [z, inf).

    v may be negative or zero provided z > 0; at z = 0 the integral only
    converges for v > 0, where it equals the complete gamma function. A
    non-finite v or z, or a negative z, raises DomainError, as does an
    overflow in the downward recurrence.
    Against 40-digit mpmath the relative error is about 1e-12 or less. At an
    order a distance d below 0.01 from 0, -1, -2, ... it is about 1e-14 / d,
    because the recurrence divides by the order near 0; it peaks at about
    1e-6 at d = 1e-8, where E1 takes over.
    """
    if not (0.0 <= z < math.inf and abs(v) < math.inf):  # NaN included
        raise DomainError(f"need a finite order and a finite z >= 0, got v={v}, z={z}")
    if z == 0.0:
        if v <= 0.0:
            raise DomainError(f"Gamma({v}, 0) diverges; need v > 0 at z = 0")
        return math.gamma(v)
    if v < 0.01 and z < 1.5:
        # Low orders at small z: the orders w = v % 1, w - 1, ..., v each come
        # from the one above with Gamma(w, z) = (Gamma(w + 1, z) - z^w e^-z) / w,
        # so the anchor is w, or w + 1 when w is below 0.01. The division
        # cancels next to order 0, so any w within 1e-8 of 0 takes
        # Gamma(0, z) = E1(z) instead.
        w = v % 1.0
        if w < 0.01:
            value = upper_incomplete_gamma(w + 1.0, z)
        else:
            value = upper_incomplete_gamma(w, z)
            w -= 1.0
        log_z = math.log(z)
        try:
            for _ in range(round(w - v) + 1):
                value = _expint_e1(z) if abs(w) < 1e-8 else (value - math.exp(w * log_z - z)) / w
                w -= 1.0
        except OverflowError:
            raise DomainError(f"Gamma({v}, {z}) passes the float range") from None
        return value
    # The continued fraction converges for any real order once z > 0. Orders
    # below 0.01 take it from z = 1.5 on: the series would cancel next to the
    # pole of the complete gamma at 0, and the recurrence would lose about a
    # factor of z per step. Orders of 0.01 and above take it from z = v + 1.
    if v < 0.01 or z >= v + 1.0:
        return math.exp(v * math.log(z) - z) * _upper_cf_scaled(v, z)
    log_pre = v * math.log(z) - z
    lower = math.exp(log_pre) * _lower_series_scaled(v, z) if log_pre > -745.0 else 0.0
    return math.gamma(v) - lower


def _upper_gamma_calibrated(v: float, z: float) -> bool:
    # Whether (v, z) lies in the box _upper_gamma_rel_error was calibrated
    # on; outside it that bound is an extrapolation.
    return -12.9 <= v <= 40.0 and 5e-6 <= z <= 890.0 and not (v < 0.01 and z < 1.5)


def _upper_gamma_rel_error(v: float, z: float, value: float) -> float:
    # A bound on the relative error of value = upper_incomplete_gamma(v, z)
    # where _upper_gamma_calibrated(v, z): calibrated against 40-digit mpmath
    # on 7594 random points (v from -12.9 to 40, z from 5e-6 to 890, outside
    # the low-order recurrence) and held 1.5x above the worst seen there.
    # size measures the log of the prefactor z^v e^-z, whose rounding the
    # exp turns into relative error.
    # - Series route, Gamma(v) - lower: at most 3.2 eps Gamma(v), from
    #   math.gamma and the subtraction, plus 0.5 (size + 1) eps times the
    #   lower part.
    # - Continued fraction: at most (0.6 size + 4 + 35 / z) eps relative;
    #   the fraction converges slowly, and gathers rounding, at small z.
    if not (v >= 0.01 and z < v + 1.0):
        return _upper_gamma_rel_floor(v, z)
    log_pre = v * math.log(z)
    size = abs(log_pre) + abs(log_pre - z)
    complete = math.gamma(v)
    bound = (3.2 * complete + 0.5 * (size + 1.0) * (complete - value)) / value
    return 1.5 * _EPS * bound


def _upper_gamma_rel_floor(v: float, z: float) -> float:
    # The least _upper_gamma_rel_error(v, z, value) returns for any value,
    # known before Gamma(v, z) is: the whole bound on the fraction route, and
    # 1.5 * 3.2 eps on the series route, where value <= Gamma(v).
    if v >= 0.01 and z < v + 1.0:
        return 1.5 * _EPS * 3.2
    log_pre = v * math.log(z)
    size = abs(log_pre) + abs(log_pre - z)
    return 1.5 * _EPS * (0.6 * size + 4.0 + 35.0 / z)


# Double-exponential tables over |t| <= _DE_T. Level 0 has step _DE_H0 and
# every later level halves the step, holding only its new (odd) nodes, so a
# level's sum reuses the one before it. At |t| = 4.5 the nodes sit e^-70 and
# e^70 from lo, so the truncated tails are negligible for any integrand with
# an integrable singularity at lo and at least algebraic decay.
_DE_T = 4.5
_DE_H0 = 1.0 / 16.0


@functools.cache
def _de_tables() -> list[tuple]:
    # One (nodes, part, weights) entry per level: f's values at nodes, or
    # at the level before's when nodes is None, sliced by part, are dotted
    # with weights. The first stopping test needs levels 0 and 1 together,
    # so level 0 holds both their nodes for one call of the integrand.
    import numpy as np

    levels = []
    for level in range(_DE_LEVELS + 1):
        h = _DE_H0 / 2**level
        k = np.arange(-math.floor(_DE_T / h), math.floor(_DE_T / h) + 1)
        t = k[k % 2 == 1] * h if level else k * h
        u = 0.5 * math.pi * np.sinh(t)
        du = 0.5 * math.pi * np.cosh(t)
        # x = lo + e^u, dx/dt = e^u du.
        exp_x = np.exp(u)
        levels.append((exp_x, h * exp_x * du))
    (exp_x0, exp_w0), (exp_x1, exp_w1) = levels[:2]
    split = len(exp_x0)
    return [
        (np.concatenate((exp_x0, exp_x1)), slice(split), exp_w0),
        (None, slice(split, None), exp_w1),
    ] + [(exp_x, slice(None), exp_w) for exp_x, exp_w in levels[2:]]


def integrate(f: Callable[[np.ndarray], np.ndarray], lo: float) -> float:
    """Double-exponential (exp-sinh) quadrature of f over (lo, inf).

    f maps a 1-D array of nodes to the array of its values there,
    elementwise. It is called once for levels 0 and 1 of the rule together,
    then once per further level; each level still sums its own nodes, so the
    result is that of the rule taken level by level. The nodes are
    lo + exp(pi/2 sinh t); the nearest sit about 2e-31 from lo, so they never
    touch an integrable singularity at lo = 0, but round onto lo anywhere
    else. The step in t halves until the sums at step h and step 2h differ
    by at most max(1e-14, 1e-10 * |sum|). Raises DomainError for a
    non-finite lo, and QuadratureError on a non-finite sum, or when the
    tables' 5 halvings run out first.
    """
    import numpy as np

    if not math.isfinite(lo):
        raise DomainError(f"lo must be finite, got {lo}")
    total = 0.0
    for level, (exp_x, part, exp_w) in enumerate(_de_tables()):
        if exp_x is not None:
            values = f(lo + exp_x)
        previous, total = total, 0.5 * total + float(np.dot(values[part], exp_w))
        if not math.isfinite(total):
            raise QuadratureError(f"quadrature sum is not finite over [{lo}, inf)")
        if level and abs(total - previous) <= max(_DE_ABS_TOL, _DE_REL_TOL * abs(total)):
            return total
    raise QuadratureError(
        f"quadrature over [{lo}, inf) missed its tolerance after {level} step halvings"
    )
