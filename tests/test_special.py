import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eelink import (
    DomainError,
    QuadratureError,
    analysis,
    default_params,
    integrate,
    special,
    upper_incomplete_gamma,
)

# Frozen anchors computed by 40-digit arithmetic before the build.
GAMMA_ANCHORS = [
    (-0.5, 1.0, 0.17814771178156069),
    (-1.5, 0.5, 0.749890975459209499),
    (-4.5, 2.0, 8.76698321114521758e-4),
    (3.7, 9.0, 0.0633351495353975528),
    (0.3, 0.02, 1.96546825639594301),
]


def rel(a, b):
    return abs(a - b) / abs(b)


def gamma_fn(v):
    # The complete gamma function as the library exposes it: Gamma(v, 0).
    return upper_incomplete_gamma(v, 0.0)


def level_by_level(f, lo):
    """The exp-sinh rule as defined: each level's nodes and weights built
    from scratch and f called once per level, halving the step from 1/16
    over |t| <= 4.5 until two successive sums agree. integrate must return
    its bits."""
    total = 0.0
    for level in range(6):
        h = 1.0 / 16.0 / 2**level
        k = np.arange(-math.floor(4.5 / h), math.floor(4.5 / h) + 1)
        t = k[k % 2 == 1] * h if level else k * h
        exp_x = np.exp(0.5 * math.pi * np.sinh(t))
        exp_w = h * exp_x * (0.5 * math.pi * np.cosh(t))
        previous, total = total, 0.5 * total + float(np.dot(f(lo + exp_x), exp_w))
        if level and abs(total - previous) <= max(1e-14, 1e-10 * abs(total)):
            return total
    raise AssertionError(f"the reference rule missed its tolerance over [{lo}, inf)")


def counted(f):
    """f, recording the size of every array it is called with."""

    def wrapper(w):
        wrapper.sizes.append(w.size)
        return f(w)

    wrapper.sizes = []
    return wrapper


# TestIntegrate's integrands, by id, with their lower ends.
INTEGRANDS = {
    "exponential": (lambda w: np.exp(-w), 0.0),
    "gain-density": (lambda w: 4.0 * w * np.exp(-2.0 * w), 0.0),
    "gain-density-tail": (lambda w: 4.0 * w * np.exp(-2.0 * w), 0.5323),
    "sqrt-sing-inf": (lambda w: w**-0.5 * np.exp(-w), 0.0),
    "log-sing": (lambda w: -np.log(w) * np.exp(-w), 0.0),
    "cos": (lambda w: np.cos(3.0 * w) * np.exp(-w), 0.0),
    "neg-order-tail": (lambda w: w**-3.5 * np.exp(-w), 10.0),
    "algebraic-decay": (lambda w: 1.0 / (1.0 + w * w), 0.0),
}


def link_integrands(monkeypatch, m):
    """The deficit, kernel and mean-rate integrands as analysis builds them,
    with their lower ends, caught on their way into integrate."""
    seen = []

    def spy(f, lo):
        seen.append((f, lo))
        return integrate(f, lo)

    monkeypatch.setattr(analysis, "integrate", spy)
    link = dataclasses.replace(default_params(), fading_m=m)
    for theta, gamma0 in ((1e-4, 0.0), (1e-5, 0.7), (1e-2, 0.0), (3e-2, 0.4)):
        analysis._log_mgf_quadrature(link, theta, gamma0)
    for gamma0 in (0.0, 1.3):
        analysis.mean_service_rate(link, gamma0)
    monkeypatch.undo()
    return seen


class TestGammaFn:
    def test_factorials(self):
        assert gamma_fn(2.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(6.0) == pytest.approx(120.0, rel=1e-14)

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("v", [0.0, -1.0, -2.0, -7.0])
    def test_poles(self, v):
        with pytest.raises(DomainError):
            gamma_fn(v)

    def test_accuracy_across_range(self):
        # Gamma(v) = (v-1)! at integers spot-checks the wide range.
        assert rel(gamma_fn(20.0), math.factorial(19)) < 1e-12
        assert rel(gamma_fn(50.0), math.factorial(49)) < 1e-12


class TestUpperIncompleteGamma:
    def test_exponential_case(self):
        assert upper_incomplete_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_shifted_exponential_case(self):
        assert upper_incomplete_gamma(2.0, 3.0) == pytest.approx(4.0 * math.exp(-3.0), rel=1e-12)

    @pytest.mark.parametrize("v,z,expected", GAMMA_ANCHORS)
    def test_frozen_anchors(self, v, z, expected):
        assert rel(upper_incomplete_gamma(v, z), expected) < 1e-10

    @pytest.mark.parametrize("v,z,bits", [
        # Either side of the series / continued-fraction split at z = v + 1,
        # and on it; then a high order on each route, a small z and a
        # negative order on the fraction.
        (0.3, 1.2, "0x1.84670cc4e5210p-3"),
        (0.3, 1.3, "0x1.5226be5bd8d06p-3"),
        (0.3, 1.4, "0x1.271202f854409p-3"),
        (2.5, 3.4, "0x1.412d9faea68a8p-2"),
        (2.5, 3.5, "0x1.2c586d5626789p-2"),
        (2.5, 3.6, "0x1.18ab61cc6b1adp-2"),
        (7.0, 7.9, "0x1.d510d42e85064p+7"),
        (7.0, 8.1, "0x1.b1e44ab1c0d8dp+7"),
        (11.5, 0.5, "0x1.6b243e2afa9d2p+23"),
        (11.5, 30.0, "0x1.c69fd5c70e72ep+8"),
        (0.05, 0.001, "0x1.53f53f372893ap+2"),
        (-2.5, 3.0, "0x1.1593458a1906ep-11"),
    ])
    def test_frozen_bits(self, v, z, bits):
        # The loops' stopping tests decide the last bits; these pin them.
        assert upper_incomplete_gamma(v, z) == float.fromhex(bits)

    def test_fraction_guards_match_lentz_guards(self):
        # The fraction replaces an update that is exactly 0 by tiny; Lentz's
        # own guards replace any |update| below tiny. Every routed call has
        # b >= 2, so the two agree bit for bit on the fraction's domain:
        # orders of 0.01 and above from z = v + 1, lower ones from z = 1.5.
        def lentz(v, z):
            tiny = 1e-300
            b = z + 1.0 - v
            c = 1.0 / tiny
            d = 1.0 / b if b != 0.0 else 1.0 / tiny
            h = d
            for i in range(1, 10_000):
                an = -i * (i - v)
                b += 2.0
                d = an * d + b
                if -tiny < d < tiny:
                    d = tiny
                c = b + an / c
                if -tiny < c < tiny:
                    c = tiny
                d = 1.0 / d
                delta = d * c
                h *= delta
                if -1e-15 <= delta - 1.0 <= 1e-15:
                    return h
            raise AssertionError("stalled")

        rng = random.Random(20)
        for _ in range(20_000):
            v = rng.choice((rng.uniform(0.01, 171.0), rng.uniform(-300.0, 0.01),
                            rng.uniform(-13.0, 0.01)))
            z = (v + 1.0 if v >= 0.01 else 1.5) + rng.choice((0.0, 10 ** rng.uniform(-9, 3)))
            assert special._upper_cf_scaled(v, z) == lentz(v, z), (v, z)

    def test_negative_integer_order(self):
        # The recurrence passes through the exponential integral at order 0.
        val = upper_incomplete_gamma(-2.0, 1.5)
        check = integrate(lambda w: w**-3.0 * np.exp(-w), 1.5)
        assert rel(val, check) < 1e-9

    def test_zero_argument_equals_complete(self):
        for v in (0.5, 1.0, 2.5, 7.0):
            assert upper_incomplete_gamma(v, 0.0) == pytest.approx(math.gamma(v), rel=1e-12)
        # Approach from z > 0: the lower tail scales like z^v / v.
        for v in (2.5, 7.0):
            assert upper_incomplete_gamma(v, 1e-12) == pytest.approx(math.gamma(v), rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            upper_incomplete_gamma(1.0, -0.5)
        for v, z in ((2.0, math.nan), (-0.5, math.nan), (2.0, math.inf), (-0.5, math.inf),
                     (-math.inf, 0.5), (math.inf, 0.5), (math.nan, 0.5), (math.nan, 2.0)):
            with pytest.raises(DomainError, match="finite"):
                upper_incomplete_gamma(v, z)
        with pytest.raises(DomainError):
            upper_incomplete_gamma(-1.0, 0.0)
        with pytest.raises(DomainError):
            upper_incomplete_gamma(0.0, 0.0)

    def test_monotone_decreasing_in_z(self):
        for v in (0.5, 2.0, 6.0):
            values = [upper_incomplete_gamma(v, z) for z in (0.01, 0.1, 1.0, 5.0, 20.0)]
            assert all(a > b for a, b in zip(values, values[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        v=st.floats(min_value=-4.5, max_value=10.0),
        z=st.floats(min_value=0.01, max_value=20.0),
    )
    def test_recurrence_identity(self, v, z):
        lhs = upper_incomplete_gamma(v + 1.0, z)
        rhs = v * upper_incomplete_gamma(v, z) + math.exp(v * math.log(z) - z)
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    def test_near_integer_orders_match_mpmath(self):
        # Orders a distance d = 10^-p either side of 0, -1, ..., -4, below
        # z = 1.5 where the downward recurrence runs. test_recurrence_identity
        # cannot see an error here: Gamma(v) and Gamma(v + 1) come out of the
        # same chain. The recurrence divides by an order near 0 and loses
        # about 1e-14 / d; below d = 1e-8, E1 stands in for order 0 and is off
        # by about d / 4.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for p in range(4, 16):
                d = 10.0**-p
                tol = 2e-14 / d if d >= 1e-8 else 1e-8
                for k in range(5):
                    for v in (-k + d, -k - d):
                        for z in (0.01, 0.2, 0.7, 1.2, 1.49):
                            err = rel(upper_incomplete_gamma(v, z), float(mpmath.gammainc(v, z)))
                            assert err < tol, (v, z, err)

    def test_route_edges_match_mpmath(self):
        # Either side of each switch: order 0.01, z = 1.5 below it, and
        # z = v + 1 above it.
        mpmath = pytest.importorskip("mpmath")
        points = []
        for s in (-1e-12, 1e-12):
            points += [(0.01 + s, z) for z in (0.005, 0.5, 1.0, 1.49, 3.0)]
            points += [(v, 1.5 + s) for v in (-3.5, -0.5, 0.005)]
            points += [(v, v + 1.0 + s) for v in (0.02, 0.3, 1.7, 4.2)]
        with mpmath.workdps(40):
            for v, z in points:
                err = rel(upper_incomplete_gamma(v, z), float(mpmath.gammainc(v, z)))
                assert err < 1e-12, (v, z, err)

    @pytest.mark.parametrize("v", [-2.5, -0.5, 0.7, 3.0])
    @pytest.mark.parametrize("z", [0.5, 2.0, 10.0])
    def test_agrees_with_quadrature(self, v, z):
        direct = upper_incomplete_gamma(v, z)
        quad = integrate(lambda w: w ** (v - 1.0) * np.exp(-w), z)
        assert rel(direct, quad) < 1e-8


class TestIntegrate:
    def test_exponential_mass(self):
        assert integrate(lambda w: np.exp(-w), 0.0) == pytest.approx(1.0, rel=1e-10)

    def test_gain_density_mass(self):
        assert integrate(lambda w: 4.0 * w * np.exp(-2.0 * w), 0.0) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_gain_density_partial_mass(self):
        # Closed form e^(-2 g)(2 g + 1) for the tail above g = 0.5323.
        got = integrate(lambda w: 4.0 * w * np.exp(-2.0 * w), 0.5323)
        assert got == pytest.approx(0.7120098759495865, rel=1e-10)

    @pytest.mark.parametrize(
        "f,lo,expected",
        [
            # Singular at lo = 0 (square root, log), oscillating, a tail, slow decay.
            (lambda w: w**-0.5 * np.exp(-w), 0.0, lambda mp: mp.gamma(0.5)),
            (lambda w: -np.log(w) * np.exp(-w), 0.0, lambda mp: mp.euler),
            (lambda w: np.cos(3.0 * w) * np.exp(-w), 0.0, lambda mp: mp.mpf(1) / 10),
            (lambda w: w**-3.5 * np.exp(-w), 10.0, lambda mp: mp.gammainc(-2.5, 10)),
            (lambda w: 1.0 / (1.0 + w * w), 0.0, lambda mp: mp.pi / 2),
        ],
        ids=["sqrt-sing-inf", "log-sing", "cos", "neg-order-tail", "algebraic-decay"],
    )
    def test_matches_mpmath(self, f, lo, expected):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = float(expected(mpmath))
        assert rel(integrate(f, lo), want) < 1e-12

    def test_bad_interval(self):
        for lo in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="lo must be finite"):
                integrate(np.exp, lo)

    @pytest.mark.parametrize("name", list(INTEGRANDS))
    def test_bits_match_the_rule_level_by_level(self, name):
        f, lo = INTEGRANDS[name]
        assert integrate(f, lo) == level_by_level(f, lo)

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 5.5])
    def test_link_integrands_match_the_rule_level_by_level(self, monkeypatch, m):
        integrands = link_integrands(monkeypatch, m)
        # Two deficits, two deficit-kernel pairs (1 - F > 1/2 at the larger
        # theta) and two mean rates.
        assert len(integrands) == 8
        for f, lo in integrands:
            assert integrate(f, lo) == level_by_level(f, lo)

    def test_levels_0_and_1_take_one_call(self):
        # 145 level-0 nodes and 144 new level-1 nodes in one array; the sums
        # agree at level 1, so no other call follows.
        f = counted(lambda w: np.exp(-w))
        integrate(f, 0.0)
        assert f.sizes == [289]

    @pytest.mark.parametrize(
        "f,sizes",
        [
            # Slow decay agrees at level 2, a fast oscillation only at level 5.
            (lambda w: np.exp(-0.01 * w), [289, 288]),
            (lambda w: np.cos(10.0 * w) * np.exp(-w), [289, 288, 576, 1152, 2304]),
        ],
        ids=["level-2", "level-5"],
    )
    def test_later_levels_take_one_call_each(self, f, sizes):
        counted_f = counted(f)
        assert integrate(counted_f, 0.0) == level_by_level(f, 0.0)
        assert counted_f.sizes == sizes

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_level_0_sum(self, value):
        f = counted(lambda w: np.full_like(w, value))
        with pytest.raises(QuadratureError, match="quadrature sum is not finite"):
            integrate(f, 0.0)
        assert f.sizes == [289]

    def test_budget_exhaustion(self):
        # A jump inside the range: the sums keep moving by about the step
        # size, so the 5 halvings run out before they agree to 1e-10.
        with pytest.raises(QuadratureError, match="after 5 step halvings"):
            integrate(lambda w: (w < 0.3) * 1.0, 0.0)
