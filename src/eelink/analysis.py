"""Link-level analytics for the threshold-gated transmitter.

Everything revolves around the per-slot service decay moment
E[exp(-theta * s)], where s is the gated Shannon service in bits. Its log
gives the effective capacity; dividing by the two-mode power budget gives
the energy efficiency. For any fading m, the closed form takes the mean SNR
as large, which folds the integral into an upper incomplete gamma; the exact
route integrates the true kernel numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import SystemParams, pdf, tail_probability
from .errors import DomainError, _require_finite
from .special import integrate, upper_incomplete_gamma

METHOD_EXACT = "exact_quadrature"
METHOD_CLOSED = "closed_form"
_METHODS = (METHOD_EXACT, METHOD_CLOSED)
# The per-point quantities a sweep can return: energy efficiency, effective
# capacity, trend indicator and service decay moment.
QUANTITIES = ("EE", "alpha", "G", "F")


@dataclass(frozen=True)
class QosSpec:
    """Delay-QoS requirement: the per-bit decay exponent theta."""

    theta: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.theta <= 0.0:
            raise DomainError("theta must be positive")


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


def _check_gamma0(gamma0: float) -> None:
    if not 0.0 <= gamma0 < math.inf:
        raise DomainError(f"gamma0 must be nonnegative and finite, got {gamma0}")


def _logaddexp(x: float, y: float) -> float:
    # log(e^x + e^y) by numpy.logaddexp's own formula, so it gives the same
    # bits without loading numpy.
    lo, hi = (x, y) if x < y else (y, x)
    return hi + math.log1p(math.exp(lo - hi))


def _log_mgf_closed(params: SystemParams, theta: float, gamma0: float, p_idle: float) -> float:
    # log E[exp(-theta s)] given p_idle from _modes. Large mean SNR replaces
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
    tail = upper_incomplete_gamma(m + a, m * gamma0)
    if tail == 0.0:
        raise DomainError(f"Gamma({m + a:.6g}, {m * gamma0:.6g}) underflows the float range")
    log_tail = a * (math.log(params.mean_snr) - math.log(m)) + math.log(tail) - math.lgamma(m)
    if p_idle == 0.0:
        return log_tail
    return _logaddexp(math.log(p_idle), log_tail)


def _log_mgf(
    params: SystemParams, theta: float, gamma0: float, p_idle: float, method: str
) -> float:
    # log E[exp(-theta s)] by the given method, with p_idle from _modes; the
    # exact route integrates the true kernel over the tail.
    if method == METHOD_CLOSED:
        return _log_mgf_closed(params, theta, gamma0, p_idle)
    if method != METHOD_EXACT:
        raise DomainError(f"unknown method {method!r}; expected one of {_METHODS}")
    import numpy as np

    a = params.exponent_rate * theta
    snr = params.mean_snr

    # 1 - F, integrated as such: F = 1 - (1 - F) keeps full relative
    # accuracy in log F however small theta makes 1 - F.
    def deficit(g: np.ndarray) -> np.ndarray:
        return -np.expm1(a * np.log1p(snr * g)) * pdf(params, g)

    one_minus_f = integrate(deficit, gamma0)
    if one_minus_f <= 0.5:
        return math.log1p(-one_minus_f)

    # F is small here, so integrate it directly rather than as 1 - (1 - F).
    def kernel(g: np.ndarray) -> np.ndarray:
        return np.exp(a * np.log1p(snr * g)) * pdf(params, g)

    f = p_idle + integrate(kernel, gamma0)
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
    _, p_idle, _ = _modes(params, gamma0)
    return _log_mgf(params, qos.theta, gamma0, p_idle, method)


def service_mgf(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> float:
    """E[exp(-theta s)], in (0, 1) for any positive theta and threshold."""
    return _mgf(log_service_mgf(params, qos, gamma0, method))


def _capacity(params: SystemParams, theta: float, log_mgf: float) -> float:
    # Effective capacity in bits/s from the log-MGF.
    return -log_mgf / (theta * params.slot_duration)


def effective_capacity(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> float:
    """Largest sustainable constant arrival rate in bits/s under the QoS
    exponent, for the service gated at the given threshold."""
    return _capacity(params, qos.theta, log_service_mgf(params, qos, gamma0, method))


def _modes(params: SystemParams, gamma0: float) -> tuple[float, float, float]:
    # (p_tr, p_idle, total power in W) at gamma0. The two mode probabilities
    # sum to 1 exactly because the idle side is computed as the complement.
    _check_gamma0(gamma0)
    p_tr = tail_probability(params, gamma0)
    p_idle = 1.0 - p_tr
    power = params.circuit_power + params.tx_power * p_tr + params.idle_power * p_idle
    return p_tr, p_idle, power


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
    # copy of the four formulas, which analyze and _point share. EE, like F
    # and G, raises where the service moment passes the float range.
    alpha = _capacity(params, theta, log_mgf)
    if quantity == "alpha":
        return alpha
    if quantity == "G":
        return _trend(params, theta, gamma0, log_mgf, power)
    mgf = _mgf(log_mgf)
    return mgf if quantity == "F" else alpha / power


def _point(
    params: SystemParams, theta: float, gamma0: float, quantity: str, method: str,
    modes: tuple[float, float, float],
) -> float:
    # One of QUANTITIES at a point whose _modes are given, so a sweep can
    # share them across theta; EE needs a nonzero total power.
    _, p_idle, power = modes
    if quantity == "EE":
        _require_power(gamma0, power)
    log_mgf = _log_mgf(params, theta, gamma0, p_idle, method)
    return _formula(params, theta, gamma0, log_mgf, power, quantity)


def energy_efficiency(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> float:
    """Effective capacity per consumed watt, bits/Joule."""
    return _point(params, qos.theta, gamma0, "EE", method, _modes(params, gamma0))


def ee_trend(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> float:
    """Trend indicator for energy efficiency versus the threshold.

    Its sign matches the sign of d(EE)/d(gamma0): positive while raising the
    threshold still helps, negative once it hurts. Cheap to evaluate in
    closed form, so the optimizer searches on it instead of differencing EE.
    Unlike EE it stays defined at a total power of 0 W.
    """
    return _point(params, qos.theta, gamma0, "G", method, _modes(params, gamma0))


def _trend(
    params: SystemParams, theta: float, gamma0: float, log_mgf: float, power: float
) -> float:
    # ee_trend's formula, given the log-MGF and the total power at gamma0, so
    # analyze can reuse the values it already has.
    a = params.exponent_rate * theta
    swing = params.tx_power - params.idle_power
    kernel = (1.0 + params.mean_snr * gamma0) ** a
    return -swing * log_mgf * _mgf(log_mgf) - (1.0 - kernel) * power


def _mgf_and_slope(
    params: SystemParams, theta: float, gamma0: float, method: str
) -> tuple[float, float, float, float | None]:
    # (log F, total power, gain density, dF/dgamma0) at gamma0, the pieces
    # the two slopes below share. dF/dgamma0 = pdf(gamma0) (1 - k_F), with
    # k_F the kernel inside F at gamma0: (snr gamma0)^a for the closed form,
    # (1 + snr gamma0)^a for the exact route. It is None where k_F passes the
    # float range (the closed form's, at gamma0 = 0 or snr gamma0 far below
    # 1); a search halves there.
    _, p_idle, power = _modes(params, gamma0)
    log_mgf = _log_mgf(params, theta, gamma0, p_idle, method)
    density = pdf(params, gamma0)
    a = params.exponent_rate * theta
    snr_g = params.mean_snr * gamma0
    try:
        kernel = (snr_g if method == METHOD_CLOSED else 1.0 + snr_g) ** a
    except (OverflowError, ZeroDivisionError):
        return log_mgf, power, density, None
    return log_mgf, power, density, density * (1.0 - kernel)


def _capacity_and_slope(
    params: SystemParams, theta: float, gamma0: float, method: str
) -> tuple[float, float | None]:
    # effective_capacity and its derivative in gamma0, -F' / (theta T F).
    log_mgf, _, _, mgf_slope = _mgf_and_slope(params, theta, gamma0, method)
    scale = theta * params.slot_duration
    slope = None if mgf_slope is None else -mgf_slope / (scale * _mgf(log_mgf))
    return _capacity(params, theta, log_mgf), slope


def _trend_and_slope(
    params: SystemParams, theta: float, gamma0: float, method: str
) -> tuple[float, float | None]:
    # ee_trend and its derivative in gamma0. With k = (1 + snr gamma0)^a and
    # P' = -pdf swing, G = -swing F log F - (1 - k) P differentiates to
    # -swing F' (log F + 1) + k' P + (1 - k) pdf swing.
    log_mgf, power, density, mgf_slope = _mgf_and_slope(params, theta, gamma0, method)
    trend = _trend(params, theta, gamma0, log_mgf, power)
    if mgf_slope is None:
        return trend, None
    a = params.exponent_rate * theta
    swing = params.tx_power - params.idle_power
    base = 1.0 + params.mean_snr * gamma0
    kernel = base**a
    slope = (
        -swing * mgf_slope * (log_mgf + 1.0)
        + a * params.mean_snr * kernel / base * power
        + (1.0 - kernel) * density * swing
    )
    return trend, slope


def delay_outage_estimate(
    p_buffer_nonempty: float, theta_seconds: float, delay_bound: float
) -> float:
    """Large-deviations estimate of P(delay > delay_bound), delay_bound in s.

    theta_seconds is the per-second decay exponent; a constant-rate source
    served at capacity uses theta * arrival_rate. p_buffer_nonempty is the
    probability the transmit buffer is backlogged at a random slot.
    """
    if not delay_bound > 0.0:  # NaN included
        raise DomainError(f"delay_bound must be positive, got {delay_bound}")
    if not 0.0 <= p_buffer_nonempty <= 1.0:
        raise DomainError(f"p_buffer_nonempty must be in [0, 1], got {p_buffer_nonempty}")
    return p_buffer_nonempty * math.exp(-theta_seconds * delay_bound)


def analyze(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> AnalysisResult:
    """Bundle every per-point quantity into one result."""
    p_tr, p_idle, power = _modes(params, gamma0)
    _require_power(gamma0, power)
    log_mgf = _log_mgf(params, qos.theta, gamma0, p_idle, method)
    value = {q: _formula(params, qos.theta, gamma0, log_mgf, power, q) for q in QUANTITIES}
    return AnalysisResult(
        gamma0=gamma0,
        effective_capacity=value["alpha"],
        p_tr=p_tr,
        p_idle=p_idle,
        total_power=power,
        ee=value["EE"],
        service_mgf=value["F"],
        ee_trend=value["G"],
        log_mgf=log_mgf,
    )


def mean_service_rate(params: SystemParams, gamma0: float) -> float:
    """E[s] / slot_duration in bits/s: the theta -> 0 limit of the effective
    capacity, by quadrature against the gain density."""
    _check_gamma0(gamma0)
    import numpy as np

    snr = params.mean_snr

    def integrand(g: np.ndarray) -> np.ndarray:
        return params.bandwidth * np.log2(1.0 + snr * g) * pdf(params, g)

    return integrate(integrand, gamma0)
