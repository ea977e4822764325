"""Gamma-family special functions and double-exponential quadrature.

The upper incomplete gamma function here accepts negative shape parameters,
which the closed-form link formulas produce once the QoS exponent gets large.
Negative shapes go to the continued fraction directly when the argument is
moderately large, and otherwise through a downward recurrence from an anchor
in (0, 1] where the standard series / continued-fraction split applies.

`integrate` is the double-exponential rule of Takahasi & Mori (Publ. RIMS 9,
1974; Mori & Sugihara, J. Comput. Appl. Math. 127, 2001): exp-sinh on
[lo, inf) and tanh-sinh on [lo, hi], with the step halved until two
successive sums agree. Its node and weight tables are built once, on first
use, and the integrand is evaluated on a whole level of nodes at a time.
Only the quadrature needs numpy, which it imports when first called, so the
gamma functions run without it. All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, QuadratureError

if TYPE_CHECKING:
    import numpy as np

_EULER = 0.5772156649015329
_TERM_EPS = 1e-15          # series / continued-fraction termination
_MAX_TERMS = 10_000
_DE_LEVELS = 5             # step halvings held by the quadrature tables
_DE_REL_TOL = 1e-10        # quadrature stops once successive sums agree to
_DE_ABS_TOL = 1e-14        # max(_DE_ABS_TOL, _DE_REL_TOL * |sum|)


def _lower_series_scaled(v: float, z: float) -> float:
    # S such that lower_gamma(v, z) = z^v e^-z * S; wants v > 0, z < v + 1.
    term = 1.0 / v
    total = term
    for k in range(1, _MAX_TERMS):
        term *= z / (v + k)
        total += term
        if abs(term) <= _TERM_EPS * abs(total):
            return total
    raise QuadratureError(f"incomplete gamma series stalled at v={v}, z={z}")


def _upper_cf_scaled(v: float, z: float) -> float:
    # C such that Gamma(v, z) = z^v e^-z * C, by modified Lentz iteration.
    # Converges for z > 0; efficient once z >= v + 1.
    tiny = 1e-300
    b = z + 1.0 - v
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - v)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _TERM_EPS:
            return h
    raise QuadratureError(f"incomplete gamma fraction stalled at v={v}, z={z}")


def _upper_positive(v: float, z: float) -> float:
    # Gamma(v, z) for v > 0, z > 0. Tiny orders sit next to the v = 0 pole
    # of the complete gamma, where the series route cancels catastrophically;
    # they go to the continued fraction (z at least 1.5, any order), the
    # exponential integral (v below 1e-8), or one recurrence step down from
    # v + 1.
    if v < 0.01:
        if z >= 1.5:
            return math.exp(v * math.log(z) - z) * _upper_cf_scaled(v, z)
        if v < 1e-8:
            return _expint_e1(z)
        return (_upper_positive(v + 1.0, z) - math.exp(v * math.log(z) - z)) / v
    log_pre = v * math.log(z) - z
    if z < v + 1.0:
        lower = math.exp(log_pre) * _lower_series_scaled(v, z) if log_pre > -745.0 else 0.0
        return math.gamma(v) - lower
    return math.exp(log_pre) * _upper_cf_scaled(v, z)


def _expint_e1(z: float) -> float:
    # Gamma(0, z), the exponential integral E1.
    if z <= 1.0:
        total = -_EULER - math.log(z)
        term = 1.0
        for k in range(1, _MAX_TERMS):
            term *= -z / k
            contrib = -term / k
            total += contrib
            if abs(contrib) <= _TERM_EPS * abs(total):
                return total
        raise QuadratureError(f"E1 series stalled at z={z}")
    return math.exp(-z) * _upper_cf_scaled(0.0, z)


def upper_incomplete_gamma(v: float, z: float) -> float:
    """Upper incomplete gamma Gamma(v, z) = integral of w^(v-1) e^-w over [z, inf).

    v may be negative or zero provided z > 0; at z = 0 the integral only
    converges for v > 0, where it equals the complete gamma function.
    """
    if z < 0.0:
        raise DomainError(f"z must be nonnegative, got {z}")
    if z == 0.0:
        if v <= 0.0:
            raise DomainError(f"Gamma({v}, 0) diverges; need v > 0 at z = 0")
        return math.gamma(v)
    if v > 0.0:
        return _upper_positive(v, z)
    if z >= 1.5:
        # The continued fraction converges for any real order once z is
        # moderately large; the downward recurrence would lose a factor of
        # about z in precision per unit step here.
        return math.exp(v * math.log(z) - z) * _upper_cf_scaled(v, z)
    # Small z: anchor at v' = v + n in (0, 1], then step down one unit at a
    # time with Gamma(w - 1, z) = (Gamma(w, z) - z^(w-1) e^-z) / (w - 1).
    vp = v % 1.0
    if vp == 0.0:
        vp = 1.0
    n = round(vp - v)
    value = _upper_positive(vp, z)
    w = vp
    for _ in range(n):
        w -= 1.0
        if w == 0.0:
            value = _expint_e1(z)
        else:
            value = (value - math.exp(w * math.log(z) - z)) / w
    return value


# Double-exponential tables over |t| <= _DE_T. Level 0 has step _DE_H0 and
# every later level halves the step, holding only its new (odd) nodes, so a
# level's sum reuses the one before it. At |t| = 4.5 the exp-sinh nodes sit
# e^-70 and e^70 from lo, and the tanh-sinh nodes within e^-141 half-widths
# of an end, so the truncated tails are negligible for any integrand with an
# integrable endpoint singularity and at least algebraic decay.
_DE_T = 4.5
_DE_H0 = 1.0 / 16.0


@functools.cache
def _de_tables() -> list[tuple]:
    import numpy as np

    tables = []
    for level in range(_DE_LEVELS + 1):
        h = _DE_H0 / 2**level
        k = np.arange(-math.floor(_DE_T / h), math.floor(_DE_T / h) + 1)
        t = k[k % 2 == 1] * h if level else k * h
        u = 0.5 * math.pi * np.sinh(t)
        du = 0.5 * math.pi * np.cosh(t)
        # exp-sinh: x = lo + e^u, dx/dt = e^u du.
        exp_x = np.exp(u)
        exp_w = h * exp_x * du
        # tanh-sinh: distance to the nearer end, in half-widths, is
        # 1 - tanh|u| = 2 / (e^2|u| + 1), with dx/dt = du / cosh^2 u.
        dist = 2.0 / (np.exp(2.0 * np.abs(u)) + 1.0)
        tanh_w = h * du / np.cosh(u) ** 2
        tables.append((exp_x, exp_w, dist, t > 0.0, tanh_w))
    return tables


def integrate(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """Double-exponential quadrature of f over (lo, hi); hi may be math.inf.

    f maps a 1-D array of nodes to the array of its values there, and is
    called once per level of the rule. On [lo, inf) the nodes are
    lo + exp(pi/2 sinh t) (exp-sinh); on [lo, hi] each node is placed by its
    distance to the nearer end (tanh-sinh). The nearest nodes sit about 2e-31
    from lo on [lo, inf) and 1e-61 half-widths from an end on [lo, hi], so
    they never touch an integrable singularity at an end at 0; at an end
    anywhere else they round onto it. The step in t halves until the sums at
    step h and step 2h differ by at most max(1e-14, 1e-10 * |sum|). Raises
    QuadratureError on a non-finite sum, or when the tables' 5 halvings run
    out first.
    """
    import numpy as np

    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    half = 0.5 * (hi - lo)
    total = 0.0
    for level, (exp_x, exp_w, dist, right, tanh_w) in enumerate(_de_tables()):
        if hi == math.inf:
            part = np.dot(f(lo + exp_x), exp_w)
        else:
            x = np.where(right, hi - half * dist, lo + half * dist)
            part = half * np.dot(f(x), tanh_w)
        previous, total = total, 0.5 * total + float(part)
        if not math.isfinite(total):
            raise QuadratureError(f"quadrature sum is not finite over [{lo}, {hi}]")
        if level and abs(total - previous) <= max(_DE_ABS_TOL, _DE_REL_TOL * abs(total)):
            return total
    raise QuadratureError(
        f"quadrature over [{lo}, {hi}] missed its tolerance after {level} step halvings"
    )
