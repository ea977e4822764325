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


@dataclass(frozen=True)
class QosSpec:
    """Delay-QoS requirement: per-bit exponent theta, optional delay bound."""

    theta: float
    delay_bound: float | None = None

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.theta <= 0.0:
            raise DomainError("theta must be positive")
        if self.delay_bound is not None and self.delay_bound <= 0.0:
            raise DomainError("delay_bound must be positive when given")


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
    log_tail = (
        a * (math.log(params.mean_snr) - math.log(m))
        + math.log(upper_incomplete_gamma(m + a, m * gamma0))
        - math.lgamma(m)
    )
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

    return math.log(p_idle + integrate(kernel, gamma0))


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
    return math.exp(log_service_mgf(params, qos, gamma0, method))


def effective_capacity(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> float:
    """Largest sustainable constant arrival rate in bits/s under the QoS
    exponent, for the service gated at the given threshold."""
    log_mgf = log_service_mgf(params, qos, gamma0, method)
    return -log_mgf / (qos.theta * params.slot_duration)


def _modes(params: SystemParams, gamma0: float) -> tuple[float, float, float]:
    # (p_tr, p_idle, total power in W) at gamma0. The two mode probabilities
    # sum to 1 exactly because the idle side is computed as the complement.
    _check_gamma0(gamma0)
    p_tr = tail_probability(params, gamma0)
    p_idle = 1.0 - p_tr
    power = params.circuit_power + params.tx_power * p_tr + params.idle_power * p_idle
    return p_tr, p_idle, power


def energy_efficiency(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> float:
    """Effective capacity per consumed watt, bits/Joule."""
    return analyze(params, qos, gamma0, method).ee


def ee_trend(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> float:
    """Trend indicator for energy efficiency versus the threshold.

    Its sign matches the sign of d(EE)/d(gamma0): positive while raising the
    threshold still helps, negative once it hurts. Cheap to evaluate in
    closed form, so the optimizer bisects on it instead of differencing EE.
    Unlike EE it stays defined at a total power of 0 W.
    """
    _, p_idle, power = _modes(params, gamma0)
    log_mgf = _log_mgf(params, qos.theta, gamma0, p_idle, method)
    return _trend(params, qos.theta, gamma0, log_mgf, power)


def _trend(
    params: SystemParams, theta: float, gamma0: float, log_mgf: float, power: float
) -> float:
    # ee_trend's formula, given the log-MGF and the total power at gamma0, so
    # analyze can reuse the values it already has.
    a = params.exponent_rate * theta
    swing = params.tx_power - params.idle_power
    kernel = (1.0 + params.mean_snr * gamma0) ** a
    return -swing * log_mgf * math.exp(log_mgf) - (1.0 - kernel) * power


def delay_outage_estimate(qos: QosSpec, p_buffer_nonempty: float, theta_seconds: float) -> float:
    """Large-deviations estimate of P(delay > delay_bound).

    theta_seconds is the per-second decay exponent; a constant-rate source
    served at capacity uses theta * arrival_rate. p_buffer_nonempty is the
    probability the transmit buffer is backlogged at a random slot.
    """
    if qos.delay_bound is None:
        raise DomainError("delay_bound missing from QosSpec")
    if not 0.0 <= p_buffer_nonempty <= 1.0:
        raise DomainError(f"p_buffer_nonempty must be in [0, 1], got {p_buffer_nonempty}")
    return p_buffer_nonempty * math.exp(-theta_seconds * qos.delay_bound)


def analyze(
    params: SystemParams, qos: QosSpec, gamma0: float, method: str = METHOD_CLOSED
) -> AnalysisResult:
    """Bundle every per-point quantity into one result."""
    p_tr, p_idle, power = _modes(params, gamma0)
    if power == 0.0:
        raise DomainError(
            f"total power is 0 W at gamma0 = {gamma0}: no circuit or idle power, and "
            "the transmit probability underflows, so the energy efficiency is undefined"
        )
    log_mgf = _log_mgf(params, qos.theta, gamma0, p_idle, method)
    alpha = -log_mgf / (qos.theta * params.slot_duration)
    return AnalysisResult(
        gamma0=gamma0,
        effective_capacity=alpha,
        p_tr=p_tr,
        p_idle=p_idle,
        total_power=power,
        ee=alpha / power,
        service_mgf=math.exp(log_mgf),
        ee_trend=_trend(params, qos.theta, gamma0, log_mgf, power),
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
