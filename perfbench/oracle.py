"""Reference values computed apart from eelink.

Never imports eelink. Link constants are derived here from the published
model (macro-cell path loss 128.1 + 37.6 log10 d dB); the closed form uses
mpmath's incomplete gamma at 30 digits for any order, negative orders
included; the exact route integrates the defining expectation
E[exp(-theta s)] with scipy's QUADPACK against a gamma density written out
here. The paper's published figures are kept as data.

The measuring process imports this module only after its timed work, so
set-up time and peak memory count eelink's own imports alone.
"""

from __future__ import annotations

import math

import mpmath
from scipy import integrate, optimize

import gen

# The paper's table: theta, optimal threshold, EE at the optimum, EE at
# zero threshold (bits/J), reference link.
PAPER_TABLE = (
    (1e-4, 0.5323, 1.0623e5, 1.0478e5),
    (1e-5, 1.6293, 1.1441e5, 1.0488e5),
    (1e-6, 1.6606, 1.1544e5, 1.0489e5),
    (1e-7, 1.6636, 1.1554e5, 1.0489e5),
)
PAPER_BOUNDARY = 7.219e-4                  # theta between the two regimes
PAPER_CAPACITY = (1e-4, 0.5323, 1519.7e3)  # theta, gamma0, bits/s
PAPER_INVERSION = ((1519.7e3, 0.53), (300e3, 1.73))  # mu at theta = 1e-4
# Simulation points: mu, gamma0, EE (bits/J) and the EE gain over a zero
# threshold, each with the tolerance the acceptance suite allows.
PAPER_SIM = ((1519.7e3, 0.53, 1.06e5, 0.3986, 0.02), (300e3, 1.73, 1.03e5, 5.8956, 0.30))
GATING_RESOLUTION = 1.8e-3

_DPS = 30


class Link:
    """Physical constants of a generated link dict, in linear units."""

    def __init__(self, link: dict):
        noise = 10.0 ** ((gen.NOISE_DBM_PER_HZ - 30.0) / 10.0)
        self.tx = 10.0 ** ((link["tx_power_dbm"] - 30.0) / 10.0)
        path_loss = 10.0 ** ((128.1 + 37.6 * math.log10(link["distance_km"])) / 10.0)
        self.snr = self.tx / (path_loss * noise * gen.BANDWIDTH)
        self.m = float(link["fading_m"])
        self.circuit = link["circuit_power"]
        self.idle = link["idle_power"]
        # The per-slot service s = T B log2(1 + snr g), so exp(-theta s) is
        # (1 + snr g)^a with a = -theta * bits_per_nat.
        self.bits_per_nat = gen.SLOT_DURATION * gen.BANDWIDTH / math.log(2.0)

    def tail(self, gamma0: float) -> float:
        """P(gain >= gamma0) for the unit-mean gamma gain of shape m."""
        with mpmath.workdps(_DPS):
            return float(mpmath.gammainc(self.m, self.m * gamma0, mpmath.inf, regularized=True))

    def power(self, gamma0: float) -> float:
        p = self.tail(gamma0)
        return self.circuit + self.tx * p + self.idle * (1.0 - p)

    def pdf(self, g: float) -> float:
        m = self.m
        if g <= 0.0:
            return m if m == 1.0 else (0.0 if m > 1.0 else math.inf)
        return math.exp(m * math.log(m) + (m - 1.0) * math.log(g) - m * g - math.lgamma(m))

    # -- closed form (large mean SNR), any m --------------------------------

    def log_mgf_closed_mp(self, theta: float, gamma0: float):
        """log(P(g < gamma0) + (snr/m)^a Gamma(m + a, m gamma0) / Gamma(m)),
        as an mpmath number at the working precision."""
        m = mpmath.mpf(self.m)
        a = -mpmath.mpf(theta) * self.bits_per_nat
        z = m * gamma0
        head = mpmath.gammainc(m, 0, z, regularized=True) if gamma0 > 0 else mpmath.mpf(0)
        tail = mpmath.exp(a * mpmath.log(mpmath.mpf(self.snr) / m)) * mpmath.gammainc(m + a, z)
        return mpmath.log(head + tail / mpmath.gamma(m))

    def log_mgf_closed(self, theta: float, gamma0: float) -> float:
        with mpmath.workdps(_DPS):
            return float(self.log_mgf_closed_mp(theta, gamma0))

    def capacity_closed(self, theta: float, gamma0: float) -> float:
        return -self.log_mgf_closed(theta, gamma0) / (theta * gen.SLOT_DURATION)

    def ee_closed(self, theta: float, gamma0: float) -> float:
        return self.capacity_closed(theta, gamma0) / self.power(gamma0)

    def trend_closed(self, theta: float, gamma0: float) -> tuple[float, float]:
        """The trend indicator -swing log F F - (1 - (1 + snr g0)^a) P and
        the size of its two terms, for an absolute tolerance."""
        with mpmath.workdps(_DPS):
            log_f = self.log_mgf_closed_mp(theta, gamma0)
            a = -mpmath.mpf(theta) * self.bits_per_nat
            kernel = mpmath.exp(a * mpmath.log1p(self.snr * mpmath.mpf(gamma0)))
            first = -(self.tx - self.idle) * log_f * mpmath.exp(log_f)
            second = (1 - kernel) * self.power(gamma0)
            return float(first - second), float(abs(first) + abs(second))

    # -- exact expectation by quadrature, any m -----------------------------

    def _quad(self, f, gamma0: float) -> float:
        # Split at the bulk of the gain distribution so each piece is smooth.
        knot = max(gamma0, 1.0) + 8.0 / math.sqrt(self.m)
        total = 0.0
        for lo, hi in ((gamma0, knot), (knot, math.inf)):
            value, _ = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)
            total += value
        return total

    def log_mgf_exact(self, theta: float, gamma0: float) -> float:
        """log E[exp(-theta s)] with 1 - F integrated directly, so small
        theta keeps its digits."""
        a = -theta * self.bits_per_nat
        one_minus = self._quad(lambda g: -math.expm1(a * math.log1p(self.snr * g)) * self.pdf(g),
                               gamma0)
        return math.log1p(-one_minus)

    def capacity_exact(self, theta: float, gamma0: float) -> float:
        return -self.log_mgf_exact(theta, gamma0) / (theta * gen.SLOT_DURATION)

    def ee_exact(self, theta: float, gamma0: float) -> float:
        return self.capacity_exact(theta, gamma0) / self.power(gamma0)

    def mean_rate(self, gamma0: float) -> float:
        """E[s] / T in bits/s, the theta -> 0 limit of the capacity."""
        rate = self._quad(lambda g: math.log2(1.0 + self.snr * g) * self.pdf(g), gamma0)
        return gen.BANDWIDTH * rate

    # -- searches, for reproducing the paper without eelink -----------------

    def optimal_threshold(self, theta: float) -> float:
        res = optimize.minimize_scalar(lambda g: -self.ee_closed(theta, g), bounds=(0.0, 8.0),
                                       method="bounded", options={"xatol": 1e-7})
        return float(res.x)

    def invert(self, theta: float, mu: float) -> float:
        return optimize.brentq(lambda g: self.capacity_closed(theta, g) - mu, 0.0, 20.0,
                               xtol=1e-12)

    def trend_exact(self, theta: float, gamma0: float) -> float:
        """d EE / d gamma0 of the exact EE, up to a positive factor: with
        F' = pdf (1 - (1 + snr g0)^a) and P' = -swing pdf, the quotient rule
        leaves -swing F log F - (1 - (1 + snr g0)^a) P."""
        log_f = self.log_mgf_exact(theta, gamma0)
        kernel = math.exp(-theta * self.bits_per_nat * math.log1p(self.snr * gamma0))
        return (-(self.tx - self.idle) * log_f * math.exp(log_f)
                - (1.0 - kernel) * self.power(gamma0))

    def gated(self, theta: float) -> bool:
        """Whether EE still rises at the gating resolution; EE has a single
        peak, so this decides the regime."""
        return self.trend_exact(theta, GATING_RESOLUTION) > 0.0

    def regime_boundary(self, lo: float = 1e-5, hi: float = 1e-2) -> float:
        while hi / lo > 1.0 + 1e-6:
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if self.gated(mid) else (lo, mid)
        return math.sqrt(lo * hi)


def reference() -> Link:
    return Link(gen.REFERENCE_LINK)
