"""Nakagami-m fading channel model, unit conversions, and link constants.

The normalized channel power gain is Gamma-distributed with shape m and rate
m (unit mean). All dB and dBm handling lives here; every other module works
in linear units only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, _require_finite
from .special import upper_incomplete_gamma

if TYPE_CHECKING:
    import numpy as np

LOG2_E = math.log2(math.e)


def dbm_to_watt(x_dbm: float) -> float:
    """Convert dBm to watts."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def db_to_linear(x_db: float) -> float:
    """Convert a dB value to a linear power ratio."""
    return 10.0 ** (x_db / 10.0)


def path_loss_db(distance_km: float) -> float:
    """Distance-based path loss in dB for a macro-cell link, distance in km."""
    if distance_km <= 0.0:
        raise DomainError(f"distance must be positive, got {distance_km} km")
    return 128.1 + 37.6 * math.log10(distance_km)


@dataclass(frozen=True)
class SystemParams:
    """Physical link constants.

    Exactly one of distance_km / path_loss may be supplied; a distance fixes
    the path loss through the macro-cell model above. Powers are watts,
    noise_density is W/Hz.

    Two derived constants are set once, when the link is built:
    - mean_snr: the average received SNR (the gain has unit mean);
    - exponent_rate: -slot_duration * bandwidth * log2(e). Multiplied by the
      QoS exponent, it is the SNR power-law exponent of the per-slot
      service decay factor.
    They are plain attributes, not fields: equality, hashing and the field
    list see only the constructor's arguments.
    """

    slot_duration: float
    bandwidth: float
    noise_density: float
    tx_power: float
    circuit_power: float
    idle_power: float = 0.0
    fading_m: float = 2.0
    distance_km: float | None = None
    path_loss: float | None = None

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.slot_duration <= 0.0:
            raise DomainError("slot_duration must be positive")
        if self.bandwidth <= 0.0:
            raise DomainError("bandwidth must be positive")
        if self.noise_density <= 0.0:
            raise DomainError("noise_density must be positive")
        if not 0.5 <= self.fading_m <= 171.0:
            raise DomainError(
                "fading_m must lie in [0.5, 171]; above 171 Gamma(m) passes the float range"
            )
        if self.circuit_power < 0.0:
            raise DomainError("circuit_power must be nonnegative")
        if self.idle_power < 0.0:
            raise DomainError("idle_power must be nonnegative")
        if self.tx_power <= 0.0:
            raise DomainError("tx_power must be positive")
        if self.tx_power < self.idle_power:
            raise DomainError("tx_power must not be below idle_power")
        if self.distance_km is None and self.path_loss is None:
            raise DomainError("supply exactly one of distance_km or path_loss")
        if self.distance_km is not None:
            try:
                derived = db_to_linear(path_loss_db(self.distance_km))
            except OverflowError:
                raise DomainError(
                    f"distance_km = {self.distance_km} puts the path loss past the float range"
                ) from None
            # A matching pair is fine (it appears when dataclasses.replace
            # copies a params object whose path loss was derived here).
            if self.path_loss is None:
                object.__setattr__(self, "path_loss", derived)
            elif not math.isclose(self.path_loss, derived, rel_tol=1e-12):
                raise DomainError("supply exactly one of distance_km or path_loss")
        if self.path_loss < 1.0:
            raise DomainError("path_loss must be at least 1 (linear ratio)")
        # The analytic points read these constants many times per link, so
        # they are computed here once. Plain attributes rather than
        # functools.cached_property: its instance __dict__ would slow every
        # later field read on the link.
        try:
            snr = self.tx_power / (self.path_loss * self.noise_density * self.bandwidth)
        except ZeroDivisionError:
            snr = math.inf
        rate = -self.slot_duration * self.bandwidth * LOG2_E
        if not (0.0 < snr < math.inf and math.isfinite(rate)):
            raise DomainError("the mean SNR or the service exponent passes the float range")
        m = self.fading_m
        for name, value in (
            ("mean_snr", snr),
            ("exponent_rate", rate),
            # log(mean_snr / m), lgamma(m) and the log of the gain density's
            # constant m^m / Gamma(m), each with the bits of the expression
            # the points used to evaluate.
            ("_log_snr_per_m", math.log(snr) - math.log(m)),
            ("_lgamma_m", math.lgamma(m)),
            ("_log_density_norm", m * math.log(m) - math.lgamma(m)),
        ):
            object.__setattr__(self, name, value)


def default_params() -> SystemParams:
    """Reference link: 1 ms slots, 180 kHz, -174 dBm/Hz noise, 43 dBm
    transmit power, 0.1 W circuit power, zero idle power, m = 2, 1 km."""
    return SystemParams(
        slot_duration=1e-3,
        bandwidth=180e3,
        noise_density=dbm_to_watt(-174.0),
        tx_power=dbm_to_watt(43.0),
        circuit_power=0.1,
        idle_power=0.0,
        fading_m=2.0,
        distance_km=1.0,
    )


def pdf(params: SystemParams, gain: float | np.ndarray) -> float | np.ndarray:
    """Density of the unit-mean channel power gain at the given point, or
    elementwise over an array of points (then an array comes back). A Python
    float takes a path in `math` alone, so scalar callers load no numpy."""
    m = params.fading_m
    # In log space, so m^m and g^(m - 1) cannot overflow. At g = 0 the power
    # term is -inf or +inf as m is above or below 1, giving density 0 or inf.
    if isinstance(gain, float):
        if gain < 0.0:
            raise DomainError(f"gain must be nonnegative, got {gain}")
        power = 0.0
        if m != 1.0:
            power = (m - 1.0) * (math.log(gain) if gain > 0.0 else -math.inf)
        return math.exp(params._log_density_norm + power - m * gain)
    import numpy as np

    g = np.asarray(gain, dtype=float)
    if (g < 0.0).any():
        raise DomainError(f"gain must be nonnegative, got {g.min()}")
    power = 0.0
    if m != 1.0:
        with np.errstate(divide="ignore"):
            power = (m - 1.0) * np.log(g)
    density = np.exp(params._log_density_norm + power - m * g)
    return float(density) if density.ndim == 0 else density


def tail_probability(params: SystemParams, threshold: float) -> float:
    """P(gain >= threshold): the regularized upper incomplete gamma
    Q(m, m * threshold), never above 1.

    For an integer m and z = m * threshold below 700 it is the finite sum
    Q(m, z) = e^-z sum_{k<m} z^k / k! (DLMF 8.4), which needs no incomplete
    gamma call; otherwise Gamma(m, z) / Gamma(m), as e^-z nears the float
    range's lower end past 700. A negative or non-finite threshold raises
    DomainError.
    """
    if not 0.0 <= threshold < math.inf:  # NaN included
        raise DomainError(f"threshold must be nonnegative and finite, got {threshold}")
    if threshold == 0.0:
        return 1.0
    m = params.fading_m
    z = m * threshold
    if m % 1.0 or z >= 700.0:
        return upper_incomplete_gamma(m, z) / math.gamma(m)
    # Horner form of the sum, highest term innermost. The rounding of e^-z
    # times a sum next to e^z can land just above 1.
    total = 1.0
    for k in range(int(m) - 1, 0, -1):
        total = 1.0 + total * z / k
    return min(1.0, math.exp(-z) * total)


def cdf(params: SystemParams, threshold: float) -> float:
    """P(gain < threshold); exact complement of tail_probability."""
    return 1.0 - tail_probability(params, threshold)


def sample_gains(params: SystemParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vector of independent power-gain draws from the supplied generator."""
    return rng.gamma(shape=params.fading_m, scale=1.0 / params.fading_m, size=size)
