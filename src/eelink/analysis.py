"""Link-level analytics for the threshold-gated transmitter.

Everything revolves around the per-slot service decay moment
E[exp(-theta * s)], where s is the gated Shannon service in bits. Its log
gives the effective capacity; dividing by the two-mode power budget gives
the energy efficiency. For any fading m, the closed form takes the mean SNR
as large, which folds the integral into an upper incomplete gamma,
Gamma(m + a, m gamma0) with a = -theta T B log2 e. It does not depend on the
link's powers or distance, so each link keeps its log in a bounded memo that
the link's searches and sweeps share; a hit has the bits of a fresh call,
and an error is never kept. The exact route keeps the true kernel
(1 + snr g)^a: it sums its binomial series, one incomplete gamma per term,
where snr gamma0 >= 2 and a running error bound shows log F good to a
quarter of 1e-12 relative, and integrates the kernel numerically everywhere
else (gamma0 = 0, low mean SNR, theta so small that 1 - F cancels, and
orders beyond those its error model was calibrated on). Where a bound that
needs no incomplete gamma already fails the series' final test, mostly at
such small theta, the series is declined before its first incomplete gamma.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .channel import SystemParams, _density, _tail_by_gamma, pdf, tail_probability
from .errors import DomainError, _nonnegative, _positive, _real
from .special import (
    _lower_series_scaled,
    _upper_gamma_calibrated,
    _upper_gamma_rel_error,
    _upper_gamma_rel_floor,
    integrate,
    upper_incomplete_gamma,
)

METHOD_EXACT = "exact_quadrature"
METHOD_CLOSED = "closed_form"
_METHODS = (METHOD_EXACT, METHOD_CLOSED)
# The per-point quantities a sweep can return: energy efficiency, effective
# capacity, trend indicator and service decay moment.
QUANTITIES = ("EE", "alpha", "G", "F")

_EPS = sys.float_info.epsilon
# The exact route's series answers only where its error bound on log F stays
# within this relative share, a quarter of the 1e-12 the route is tested to.
_SERIES_REL_ERR = 2.5e-13
# The series converges for snr gamma0 > 1. From 2 on, each term is at most
# about half the one before once k passes |a|, and 60 terms reach eps.
_SERIES_MIN_SNR_GAMMA = 2.0
_SERIES_MAX_TERMS = 60
# Entries a link's memo of the closed form's log Gamma(m + a, m gamma0)
# keeps. A paper-style solve of one link (the optimum at seven theta, two
# inversions, the regime boundary, and EE, G and F sweeps over one grid of
# 80 points) asks for 150 to 190 distinct values; a full memo takes about
# 50 KB.
_CLOSED_TAIL_MEMO = 256


@dataclass(frozen=True)
class QosSpec:
    """Delay-QoS requirement: the per-bit decay exponent theta."""

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _positive(self.theta, "theta"))


@dataclass(frozen=True)
class AnalysisResult:
    """Analytics at one (theta, gamma0) operating point, every field from the
    one method analyze was given."""

    gamma0: float
    effective_capacity: float
    p_tr: float
    p_idle: float
    total_power: float
    ee: float
    service_mgf: float
    ee_trend: float
    log_mgf: float


def _logaddexp(x: float, y: float) -> float:
    # log(e^x + e^y) by numpy.logaddexp's own formula, so it gives the same
    # bits without loading numpy.
    lo, hi = (x, y) if x < y else (y, x)
    return hi + math.log1p(math.exp(lo - hi))


def _log_closed_tail(params: SystemParams, v: float, z: float) -> float:
    # log Gamma(v, z) for the closed form, with v = m + a and z = m gamma0:
    # the part of its service moment that the link's powers and distance do
    # not enter, so the link's searches and sweeps at one theta and gamma0
    # share it. The memo lives on the link, so it lasts as long as the link
    # and no other link reads it; once full it drops its oldest entry. Only
    # what returns is kept, so an error is raised afresh on each call.
    memo = params._closed_tails
    key = (v, z)
    log_tail = memo.get(key)
    if log_tail is None:
        tail = upper_incomplete_gamma(v, z)
        if tail == 0.0:
            raise DomainError(f"Gamma({v:.6g}, {z:.6g}) underflows the float range")
        log_tail = math.log(tail)
        if len(memo) >= _CLOSED_TAIL_MEMO:
            del memo[next(iter(memo))]
        memo[key] = log_tail
    return log_tail


def _log_mgf_closed(params: SystemParams, theta: float, gamma0: float, p_idle: float) -> float:
    # log E[exp(-theta s)] given p_idle = 1 - p_tr. Large mean SNR replaces
    # 1 + snr g by snr g on the transmit side, whose integral is then
    # (mean_snr / m)^a Gamma(m + a, m gamma0) / Gamma(m). The prefactor is
    # kept in log space: the mean SNR is of order 10^3 and direct powers lose
    # precision.
    m = params.fading_m
    a = params.exponent_rate * theta
    if gamma0 == 0.0 and m + a <= 0.0:
        raise DomainError(
            f"{METHOD_CLOSED} at gamma0 = 0 needs theta < {-m / params.exponent_rate:.4e}"
        )
    try:
        log_gamma = _log_closed_tail(params, m + a, m * gamma0)
    except DomainError as exc:  # Gamma's refusal names only its own arguments
        raise DomainError(
            f"{METHOD_CLOSED} at theta = {theta:.6g}, gamma0 = {gamma0:.6g}: {exc}"
        ) from None
    log_tail = a * params._log_snr_per_m + log_gamma
    log_tail -= params._lgamma_m
    if p_idle == 0.0:
        return log_tail
    return _logaddexp(math.log(p_idle), log_tail)


def _log_mgf(
    params: SystemParams, theta: float, gamma0: float, p_tr: float, method: str
) -> float:
    # log E[exp(-theta s)] by the given method, with p_tr from _modes. The
    # exact route tries the binomial series first and integrates the true
    # kernel only where the series cannot vouch for its result. Where no
    # slot transmits, F is 1 and the integrand could only overflow.
    if method == METHOD_CLOSED:
        return _log_mgf_closed(params, theta, gamma0, 1.0 - p_tr)
    if method != METHOD_EXACT:
        raise DomainError(f"unknown method {method!r}; expected one of {_METHODS}")
    if p_tr == 0.0:
        return -0.0
    log_mgf = _log_mgf_series(params, params.exponent_rate * theta, gamma0, p_tr)
    if log_mgf is not None:
        return log_mgf
    return _log_mgf_quadrature(params, theta, gamma0)


def _idle_mass(params: SystemParams, gamma0: float) -> float:
    # P(gain < gamma0), the idle term of F, where p_tr > 1/2 (the series
    # calls it where p_tr - T > 1/2, the quadrature where 1/2 < 1 - F <
    # p_tr). 1 - p_tr keeps only p_tr's absolute accuracy there, so the
    # regularized lower gamma comes from its own series; z = m gamma0 is
    # below the median of the gain, so below m. Its relative error, about
    # eps (|m log z| + z + |lgamma m|) from the rounding of the prefactor's
    # log, is no worse than that of 1 - p_tr even at p_tr just above 1/2,
    # since p_tr's own error grows the same way with m.
    m = params.fading_m
    z = m * gamma0
    if z == 0.0:
        return 0.0
    return math.exp(m * math.log(z) - z - params._lgamma_m) * _lower_series_scaled(m, z)


def _log_mgf_series(
    params: SystemParams, a: float, gamma0: float, p_tr: float
) -> float | None:
    # log F by the binomial series of the kernel, or None where the series
    # cannot vouch for it. For snr g > 1, (1 + snr g)^a is the sum over k of
    # C(a, k) (snr g)^(a - k), so the transmit part of F is
    #   T = (snr/m)^a / Gamma(m) * sum_k C(a, k) x^k Gamma(v - k, z),
    # with x = m/snr, v = m + a and z = m gamma0. With a < 0 the Lagrange
    # remainder after any term has the sign of the next term and at most its
    # size, so the last term added bounds the truncation. DLMF 8.8.2 steps
    # each Gamma down from the one before, with no further exp:
    #   Gamma(w - 1, z) = (Gamma(w, z) - z^(w - 1) e^-z) / (w - 1).
    # A running bound on the absolute error follows every rounding: the first
    # Gamma's own (calibrated against mpmath), each step's, and the division
    # by |w - 1| that carries both down. Small theta makes 1 - F = p_tr - T
    # cancel like 1 / (|a| log(snr gamma0)), so the bound grows as theta
    # falls, and the quadrature takes over once it passes _SERIES_REL_ERR.
    snr = params.mean_snr
    if not snr * gamma0 >= _SERIES_MIN_SNR_GAMMA:
        return None
    m = params.fading_m
    z = m * gamma0
    v = w = m + a
    # The bound takes the error of each Gamma from the calibrated model, so
    # both must lie in its box: the first Gamma(w, z), and Gamma(m, z) where
    # p_tr is not channel.tail_probability's finite sum.
    tail_by_gamma = _tail_by_gamma(m, z)
    if not _upper_gamma_calibrated(w, z) or tail_by_gamma and not _upper_gamma_calibrated(m, z):
        return None
    log_z = math.log(z)
    # The error terms that need no Gamma(w, z): p_tr's, from the route that
    # computed it, and T's relative error from its prefactor (math.gamma is
    # exact at integer m up to 23) and from the rounding of v = m + a,
    # through d log T / dv.
    if tail_by_gamma:
        p_err = p_tr * (_upper_gamma_rel_error(m, z, p_tr * math.gamma(m)) + 2.0 * _EPS)
    else:
        p_err = p_tr * _EPS * (m + 1.0) / 2
    log_pre = a * params._log_snr_per_m
    exact_gamma = m <= 23.0 and m % 1.0 == 0.0
    d_log_t = 2.0 + math.log1p(abs(v) + z) + (abs(log_z) if v < 1.0 else 0.0)
    t_rel = _EPS * (1.5 * abs(log_pre) + (2.0 if exact_gamma else 6.0)) + math.ulp(v) / 2 * d_log_t
    if _series_refused(params, a, p_tr, z, log_z, p_err, t_rel):
        return None
    head = upper_incomplete_gamma(w, z)
    if head < sys.float_info.min:
        return None
    # x^k z^(w - 1) e^-z. Within the calibrated box its exponent peaks at
    # about 103.9 (w = 40, z near 39), far below exp's limit of 709.
    edge = math.exp((w - 1.0) * log_z - z)
    edge_err = abs((w - 1.0) * log_z) + z + 1.0  # its relative error, in eps
    err = _upper_gamma_rel_error(w, z, head) * head  # bounds the error of h
    x = m / snr
    ratio = x / z
    h = total = spread = head  # h = x^k Gamma(w, z) > 0; spread sums |term|
    size = 1.0  # |C(a, k)|; C(a, k) has the sign of (-1)^k
    carried = err  # sums |C(a, k)| times the error of h
    for k in range(1, _SERIES_MAX_TERMS + 1):
        gap = w - 1.0
        if gap == 0.0:
            return None
        h_next = x * (h - edge) / gap
        err = x * (err + _EPS * (abs(h) + edge * (edge_err + k))) / abs(gap)
        err += 2.0 * _EPS * abs(h_next)
        h, w = h_next, gap
        edge *= ratio
        size *= (k - 1 - a) / k
        term = size * h
        total += -term if k % 2 else term
        spread += abs(term)
        carried += size * err
        if abs(term) <= _EPS * total:
            break
    else:
        return None
    scale = math.exp(log_pre) / math.gamma(m)
    t = scale * total
    if not t > 0.0:  # T > 0; a sum that rounds to 0 or below vouches for nothing
        return None
    # T's error: the sum's, then the prefactor's and v's.
    t_err = scale * (carried + (k + 1) * _EPS / 2 * spread + abs(term)) + t * t_rel
    # The rounding of z = m gamma0 moves F by about z eps relative.
    deficit = p_tr - t
    if deficit <= 0.5:
        deficit_err = p_err + t_err + _EPS * (1.0 + z) * deficit
        # |d log F| = deficit_err / (1 - deficit) against |log F|.
        if not deficit_err <= _SERIES_REL_ERR * (1.0 - deficit) * -math.log1p(-deficit):
            return None
        return math.log1p(-deficit)
    # Here p_tr > 1/2 + T, as _idle_mass needs.
    idle = _idle_mass(params, gamma0)
    idle_err = _EPS * (abs(m * log_z) + z + abs(params._lgamma_m) + 4.0) * idle
    f = idle + t
    f_err = t_err + idle_err + _EPS * (1.0 + z) * f
    if not f_err <= _SERIES_REL_ERR * f * -math.log(f):
        return None
    return math.log(f)


def _series_refused(
    params: SystemParams, a: float, p_tr: float, z: float, log_z: float, p_err: float,
    t_rel: float,
) -> bool:
    # Whether _log_mgf_series's final test must fail, by a bound that needs
    # no Gamma(v, z), so the series can return None before its first one.
    # For a < 0 the kernel (1 + snr g)^a is convex in g, so by Jensen
    #   1 - F <= d_up = -p_tr expm1(a log1p(snr gbar)),
    # with gbar = E[g | g >= gamma0] = 1 + gamma0 pdf(gamma0) / (m p_tr),
    # that is 1 + z^m e^-z / (Gamma(m) m p_tr). As (snr g)^a >= (1 + snr g)^a,
    # scale Gamma(v, z) >= T >= p_tr - d_up. The series' bound on the error
    # of 1 - F is p_err plus at least p_tr - d_up times the first Gamma's
    # relative error (at least _upper_gamma_rel_floor), the sum's rounding
    # (at least eps, with spread >= Gamma(v, z) and k >= 1) and t_rel. Where
    # d_up <= 1/4, the final test allows at most _SERIES_REL_ERR (1 - F).
    # The 1% margin covers the rounding of this bound and of its inputs. A
    # p_tr below the normal range is left to the series and its own tests.
    if not p_tr >= sys.float_info.min:
        return False
    m = params.fading_m
    g_bar = 1.0 + math.exp(m * log_z - z - params._lgamma_m - math.log(m * p_tr))
    d_up = -p_tr * math.expm1(a * math.log1p(params.mean_snr * g_bar))
    if not d_up <= 0.25:
        return False
    rel = _upper_gamma_rel_floor(m + a, z) + _EPS + t_rel
    return (p_tr - d_up) * rel + p_err > 1.01 * _SERIES_REL_ERR * d_up


def _log_mgf_quadrature(params: SystemParams, theta: float, gamma0: float) -> float:
    # log F by exp-sinh quadrature of the true kernel over the tail.
    import numpy as np

    a = params.exponent_rate * theta
    snr = params.mean_snr

    # 1 - F, integrated as such: F = 1 - (1 - F) keeps full relative
    # accuracy in log F however small theta makes 1 - F.
    def deficit(g: np.ndarray) -> np.ndarray:
        return -np.expm1(a * np.log1p(snr * g)) * _density(params, g)

    one_minus_f = integrate(deficit, gamma0)
    if one_minus_f <= 0.5:
        return math.log1p(-one_minus_f)

    # F is small here, so integrate it directly rather than as 1 - (1 - F).
    def kernel(g: np.ndarray) -> np.ndarray:
        return np.exp(a * np.log1p(snr * g)) * _density(params, g)

    f = _idle_mass(params, gamma0) + integrate(kernel, gamma0)
    if f == 0.0:
        raise DomainError(f"F rounds to 0 at theta = {theta:.6g}, gamma0 = {gamma0:.6g}")
    return math.log(f)


def _mgf(log_mgf: float) -> float:
    # E[exp(-theta s)] from its log, the one place it is exponentiated. At low
    # mean SNR the closed form's log can pass the float range (its F is not
    # bounded by 1 there).
    try:
        return math.exp(log_mgf)
    except OverflowError:
        raise DomainError(
            f"service moment exp({log_mgf:.6g}) passes the float range; the closed form "
            "does not hold at this mean SNR"
        ) from None


def log_service_mgf(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> float:
    """Natural log of the per-slot service decay moment E[exp(-theta s)]."""
    gamma0 = _nonnegative(gamma0, "gamma0")
    return _log_mgf(params, qos.theta, gamma0, tail_probability(params, gamma0), method)


def service_mgf(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> float:
    """E[exp(-theta s)], in (0, 1) for any positive theta and threshold."""
    return _mgf(log_service_mgf(params, qos, gamma0, method))


def effective_capacity(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> float:
    """Largest sustainable constant arrival rate in bits/s under the QoS
    exponent, for the service gated at the given threshold."""
    return _point(params, qos.theta, _nonnegative(gamma0, "gamma0"), "alpha", method)


def _modes(params: SystemParams, gamma0: float) -> tuple[float, float]:
    # (p_tr, total power in W) at a gamma0 the caller has checked or made.
    p_tr = tail_probability(params, gamma0)
    power = params.circuit_power + params.tx_power * p_tr + params.idle_power * (1.0 - p_tr)
    return p_tr, power


def _require_power(gamma0: float, power: float) -> None:
    if power == 0.0:
        raise DomainError(
            f"total power is 0 W at gamma0 = {gamma0}: no circuit or idle power, and "
            "the transmit probability underflows, so the energy efficiency is undefined"
        )


def _formula(
    params: SystemParams, theta: float, gamma0: float, log_mgf: float, power: float,
    quantity: str,
) -> float:
    # One of QUANTITIES at a point, from its log-MGF and total power: the one
    # copy of the four formulas. EE, like F and G, raises where the service
    # moment passes the float range.
    scale = theta * params.slot_duration
    if not scale >= sys.float_info.min:  # a subnormal one can send EE past the float range
        raise DomainError(
            "theta * slot_duration rounds to 0 or below the normal float range at "
            f"theta = {theta}, slot_duration = {params.slot_duration}"
        )
    alpha = -log_mgf / scale
    if quantity == "alpha":
        return alpha
    mgf = _mgf(log_mgf)
    if quantity == "G":
        swing = params.tx_power - params.idle_power
        kernel = (1.0 + params.mean_snr * gamma0) ** (params.exponent_rate * theta)
        return -swing * log_mgf * mgf - (1.0 - kernel) * power
    return mgf if quantity == "F" else alpha / power


def _point(
    params: SystemParams, theta: float, gamma0: float, quantity: str, method: str,
    modes: tuple[float, float] | None = None,
) -> float:
    # One of QUANTITIES at a point, given its _modes where a sweep or search
    # shares them across theta. EE's nonzero total power is checked first.
    p_tr, power = _modes(params, gamma0) if modes is None else modes
    if quantity == "EE":
        _require_power(gamma0, power)
    log_mgf = _log_mgf(params, theta, gamma0, p_tr, method)
    return _formula(params, theta, gamma0, log_mgf, power, quantity)


def energy_efficiency(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> float:
    """Effective capacity per consumed watt, bits/Joule."""
    return _point(params, qos.theta, _nonnegative(gamma0, "gamma0"), "EE", method)


def ee_trend(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> float:
    """Trend indicator for energy efficiency versus the threshold.

    Its sign matches the sign of d(EE)/d(gamma0): positive while raising the
    threshold still helps, negative once it hurts. Cheap to evaluate in
    closed form, so the optimizer searches on it instead of differencing EE.
    Unlike EE it stays defined at a total power of 0 W.
    """
    return _point(params, qos.theta, _nonnegative(gamma0, "gamma0"), "G", method)


def _with_slope(
    params: SystemParams, theta: float, gamma0: float, quantity: str, method: str
) -> tuple[float, float | None]:
    # F, alpha or G at a point and its derivative in gamma0, which the
    # threshold searches step on. F' = pdf(gamma0) (1 - k_F), with k_F the
    # kernel inside F at gamma0: (snr gamma0)^a for the closed form,
    # (1 + snr gamma0)^a for the exact route. The slope is None where k_F
    # passes the float range (the closed form's, at gamma0 = 0 or snr gamma0
    # far below 1); a search halves there.
    p_tr, power = _modes(params, gamma0)
    log_mgf = _log_mgf(params, theta, gamma0, p_tr, method)
    value = _formula(params, theta, gamma0, log_mgf, power, quantity)
    density = pdf(params, gamma0)
    a = params.exponent_rate * theta
    snr_g = params.mean_snr * gamma0
    base = 1.0 + snr_g
    try:
        kernel_f = (snr_g if method == METHOD_CLOSED else base) ** a
    except (OverflowError, ZeroDivisionError):
        return value, None
    mgf_slope = density * (1.0 - kernel_f)
    if quantity == "F":
        return value, mgf_slope
    if quantity == "alpha":  # alpha = -log F / (theta T)
        return value, -mgf_slope / (theta * params.slot_duration * _mgf(log_mgf))
    # G = -swing F log F - (1 - k) P, with P' = -pdf swing. Its kernel k is
    # (1 + snr gamma0)^a under both methods, so under the closed form it is
    # not k_F and G's root sits a little below the closed-form EE's argmax.
    swing = params.tx_power - params.idle_power
    kernel = base**a
    return value, (
        -swing * mgf_slope * (log_mgf + 1.0)
        + a * params.mean_snr * kernel / base * power
        + (1.0 - kernel) * density * swing
    )


def delay_outage_estimate(
    p_buffer_nonempty: float, theta_seconds: float, delay_bound: float
) -> float:
    """Large-deviations estimate of P(delay > delay_bound), delay_bound in s.

    theta_seconds is the per-second decay exponent; a constant-rate source
    served at capacity uses theta * arrival_rate. p_buffer_nonempty is the
    probability the transmit buffer is backlogged at a random slot. Each
    argument runs as a Python float; a NaN, a value outside its range or
    one that is not a real number raises DomainError.
    """
    p_buffer_nonempty = _real(p_buffer_nonempty, "p_buffer_nonempty")
    theta_seconds = _real(theta_seconds, "theta_seconds")
    delay_bound = _real(delay_bound, "delay_bound")
    # An infinite bound at theta_seconds = 0 would give exp(-0 * inf) = NaN.
    if not 0.0 < delay_bound < math.inf:  # NaN included
        raise DomainError(f"delay_bound must be positive and finite, got {delay_bound}")
    if not 0.0 <= p_buffer_nonempty <= 1.0:
        raise DomainError(f"p_buffer_nonempty must be in [0, 1], got {p_buffer_nonempty}")
    if not theta_seconds >= 0.0:
        raise DomainError(f"theta_seconds must be nonnegative, got {theta_seconds}")
    return p_buffer_nonempty * math.exp(-theta_seconds * delay_bound)


def analyze(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> AnalysisResult:
    """Bundle every per-point quantity into one result."""
    gamma0 = _nonnegative(gamma0, "gamma0")
    p_tr, power = _modes(params, gamma0)
    _require_power(gamma0, power)
    log_mgf = _log_mgf(params, qos.theta, gamma0, p_tr, method)
    value = {q: _formula(params, qos.theta, gamma0, log_mgf, power, q) for q in QUANTITIES}
    return AnalysisResult(
        gamma0=gamma0,
        effective_capacity=value["alpha"],
        p_tr=p_tr,
        p_idle=1.0 - p_tr,
        total_power=power,
        ee=value["EE"],
        service_mgf=value["F"],
        ee_trend=value["G"],
        log_mgf=log_mgf,
    )


def mean_service_rate(params: SystemParams, gamma0: float) -> float:
    """E[s] / slot_duration in bits/s: the theta -> 0 limit of the effective
    capacity, by quadrature against the gain density."""
    gamma0 = _nonnegative(gamma0, "gamma0")
    if tail_probability(params, gamma0) == 0.0:
        return 0.0
    import numpy as np

    snr = params.mean_snr

    def integrand(g: np.ndarray) -> np.ndarray:
        return params.bandwidth * np.log2(1.0 + snr * g) * _density(params, g)

    return integrate(integrand, gamma0)
