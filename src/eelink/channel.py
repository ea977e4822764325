"""Nakagami-m fading channel model, unit conversions, and link constants.

The normalized channel power gain is Gamma-distributed with shape m and rate
m (unit mean). All dB and dBm handling lives here; every other module works
in linear units only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, _finite, _is_integer, _nonnegative, _positive
from .special import upper_incomplete_gamma

if TYPE_CHECKING:
    import numpy as np

LOG2_E = math.log2(math.e)


def dbm_to_watt(x_dbm: float) -> float:
    """Convert dBm to watts."""
    return db_to_linear(_finite(x_dbm, "x_dbm") - 30.0)


def db_to_linear(x_db: float) -> float:
    """Convert a dB value to a linear power ratio. A value that is not a
    finite real number, or one whose ratio passes the float range, raises
    DomainError."""
    x_db = _finite(x_db, "x_db")
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise DomainError(f"{x_db} dB passes the float range as a linear ratio") from None


def path_loss_db(distance_km: float) -> float:
    """Distance-based path loss in dB for a macro-cell link, distance in km."""
    return 128.1 + 37.6 * math.log10(_positive(distance_km, "distance_km"))


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
        for name in ("slot_duration", "bandwidth", "noise_density", "tx_power"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        for name in ("circuit_power", "idle_power", "fading_m"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        for name in ("distance_km", "path_loss"):  # None: not given
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _finite(value, name))
        if not 0.5 <= self.fading_m <= 171.0:
            raise DomainError(
                "fading_m must lie in [0.5, 171]; above 171 Gamma(m) passes the float range"
            )
        if self.circuit_power < 0.0:
            raise DomainError("circuit_power must be nonnegative")
        if self.idle_power < 0.0:
            raise DomainError("idle_power must be nonnegative")
        if self.tx_power < self.idle_power:
            raise DomainError("tx_power must not be below idle_power")
        if self.distance_km is None and self.path_loss is None:
            raise DomainError("supply exactly one of distance_km or path_loss")
        if self.distance_km is not None:
            loss_db = path_loss_db(self.distance_km)
            try:
                derived = db_to_linear(loss_db)
            except DomainError:
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
            # The closed form's memo of log Gamma(m + a, m gamma0), filled
            # and bounded by analysis._log_closed_tail.
            ("_closed_tails", {}),
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


def pdf(params: SystemParams, gain: float) -> float:
    """Density of the unit-mean channel power gain at one real point,
    computed in `math` alone. A negative, non-finite or non-real gain (NaN
    and arrays included) raises DomainError."""
    gain = _nonnegative(gain, "gain")
    m = params.fading_m
    # In log space, so m^m and g^(m - 1) cannot overflow. At g = 0 the power
    # term is -inf or +inf as m is above or below 1, giving density 0 or inf.
    power = 0.0
    if m != 1.0:
        power = (m - 1.0) * (math.log(gain) if gain > 0.0 else -math.inf)
    return math.exp(params._log_density_norm + power - m * gain)


def _density(params: SystemParams, g: np.ndarray) -> np.ndarray:
    # pdf's formula on an array, unchecked: g must be a float array of
    # nonnegative, finite gains, and positive ones unless the caller lets
    # log 0 divide. The quadratures call it on integrate's nodes lo + e^u,
    # with lo finite and nonnegative.
    import numpy as np

    m = params.fading_m
    power = 0.0
    if m != 1.0:
        power = (m - 1.0) * np.log(g)
    return np.exp(params._log_density_norm + power - m * g)


def _tail_by_gamma(m: float, z: float) -> bool:
    # Whether tail_probability takes Gamma(m, z) / Gamma(m), not the finite
    # sum; the exact series reads it to take p_tr's error from p_tr's route.
    return m % 1.0 != 0.0 or z >= 700.0


def tail_probability(params: SystemParams, threshold: float) -> float:
    """P(gain >= threshold): the regularized upper incomplete gamma
    Q(m, m * threshold), never above 1.

    For an integer m and z = m * threshold below 700 it is the finite sum
    Q(m, z) = e^-z sum_{k<m} z^k / k! (DLMF 8.4), which needs no incomplete
    gamma call; otherwise Gamma(m, z) / Gamma(m), as e^-z nears the float
    range's lower end past 700, and 0.0 where z passes the float range. A
    negative or non-finite threshold raises DomainError, as does one that is
    not a real number; a numpy scalar runs as a Python float.
    """
    threshold = _nonnegative(threshold, "threshold")
    m = params.fading_m
    z = m * threshold
    if z == math.inf:
        return 0.0
    if _tail_by_gamma(m, z):
        return upper_incomplete_gamma(m, z) / math.gamma(m)
    # Horner form of the sum, highest term innermost. The rounding of e^-z
    # times a sum next to e^z can land just above 1.
    total = 1.0
    for k in range(int(m) - 1, 0, -1):
        total = 1.0 + total * z / k
    return min(1.0, math.exp(-z) * total)


def draw_buffer_size(params: SystemParams, size: int) -> int:
    """Length of the out vector sample_gains needs for size gains: size,
    and at m = 2 twice as many again for the pairs of uniforms past the
    gains."""
    return 3 * size if params.fading_m == 2.0 else size


def sample_gains(
    params: SystemParams, rng: np.random.Generator, size: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Vector of independent power-gain draws from the supplied generator.

    At m = 2 the gain is Erlang: -ln(V1 * V2) / 2 for two independent
    uniforms V = 1 - U on (0, 1], U from rng.random (Devroye 1986, ch.
    IX.3), each gain taking two consecutive draws, so size gains drawn in
    blocks read the same stream as one draw of them all. Every other m
    draws standard_gamma(m) (Marsaglia-Tsang) and scales by 1/m, the bits
    of rng.gamma(m, 1/m).

    out, when given, is a held contiguous float64 vector of at least
    draw_buffer_size(params, size) values that the draws land in, so a
    caller drawing block after block allocates nothing per block. The gains
    fill out[:size], which is returned, with the bits of a call without
    out. A size that is not a nonnegative integer, or an out that cannot
    hold the draws, raises DomainError.
    """
    import numpy as np

    if not (_is_integer(size) and size >= 0):
        raise DomainError(f"size must be a nonnegative integer, got {size!r}")
    if out is not None:
        need = draw_buffer_size(params, size)
        if not (
            isinstance(out, np.ndarray)
            and out.dtype == np.float64
            and out.ndim == 1
            and out.flags.c_contiguous
            and out.flags.writeable
            and out.size >= need
        ):
            raise DomainError(
                f"out must be a writable contiguous float64 vector of at least {need} values"
            )
    # The gains are contiguous, which vector operations read faster than a
    # strided column of draws.
    gains = np.empty(size) if out is None else out[:size]
    m = params.fading_m
    if m != 2.0:
        rng.standard_gamma(m, out=gains)
        gains *= 1.0 / m
        return gains
    pairs = np.empty((size, 2)) if out is None else out[size : 3 * size].reshape(size, 2)
    rng.random(out=pairs)
    # U is a multiple of 2^-53 in [0, 1), so 1 - U is exact and never 0,
    # which keeps the log finite.
    np.subtract(1.0, pairs, out=pairs)
    np.multiply(pairs[:, 0], pairs[:, 1], out=gains)
    np.log(gains, out=gains)
    gains *= -0.5
    return gains
