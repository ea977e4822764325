import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eelink import DomainError, QuadratureError, integrate, upper_incomplete_gamma

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

    def test_negative_integer_order(self):
        # The recurrence passes through the exponential integral at order 0.
        val = upper_incomplete_gamma(-2.0, 1.5)
        check = integrate(lambda w: w**-3.0 * np.exp(-w), 1.5, math.inf)
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

    @pytest.mark.parametrize("v", [-2.5, -0.5, 0.7, 3.0])
    @pytest.mark.parametrize("z", [0.5, 2.0, 10.0])
    def test_agrees_with_quadrature(self, v, z):
        direct = upper_incomplete_gamma(v, z)
        quad = integrate(lambda w: w ** (v - 1.0) * np.exp(-w), z, math.inf)
        assert rel(direct, quad) < 1e-8


class TestIntegrate:
    def test_exponential_mass(self):
        assert integrate(lambda w: np.exp(-w), 0.0, math.inf) == pytest.approx(1.0, rel=1e-10)

    def test_gain_density_mass(self):
        assert integrate(lambda w: 4.0 * w * np.exp(-2.0 * w), 0.0, math.inf) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_gain_density_partial_mass(self):
        # Closed form 1 - e^(-2 g)(2 g + 1) at g = 0.5323, fixed before the build.
        got = integrate(lambda w: 4.0 * w * np.exp(-2.0 * w), 0.0, 0.5323)
        assert got == pytest.approx(0.28799012405041347, rel=1e-10)

    @pytest.mark.parametrize(
        "f,lo,hi,expected",
        [
            # Integrable singularity at an end, finite and semi-infinite.
            (lambda w: w**-0.5 * np.exp(-w), 0.0, 1.0, lambda mp: mp.gammainc(0.5, 0, 1)),
            (lambda w: w**-0.5 * np.exp(-w), 0.0, math.inf, lambda mp: mp.gamma(0.5)),
            (lambda w: -np.log(w), 0.0, 1.0, lambda mp: mp.mpf(1)),
            (lambda w: w**1.5 * np.exp(-w), 2.0, 7.0, lambda mp: mp.gammainc(2.5, 2, 7)),
            (lambda w: np.cos(3.0 * w), -1.0, 2.0, lambda mp: (mp.sin(6) + mp.sin(3)) / 3),
            (lambda w: w**-3.5 * np.exp(-w), 10.0, math.inf, lambda mp: mp.gammainc(-2.5, 10)),
            (lambda w: 1.0 / (1.0 + w * w), 0.0, math.inf, lambda mp: mp.pi / 2),
        ],
        ids=["sqrt-sing-finite", "sqrt-sing-inf", "log-sing", "finite", "cos",
             "neg-order-tail", "algebraic-decay"],
    )
    def test_matches_mpmath(self, f, lo, hi, expected):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = float(expected(mpmath))
        assert rel(integrate(f, lo, hi), want) < 1e-12

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate(math.exp, 1.0, 1.0)

    def test_budget_exhaustion(self):
        # A jump inside the interval: the sums keep moving by about the step
        # size, so the 5 halvings run out before they agree to 1e-10.
        with pytest.raises(QuadratureError, match="after 5 step halvings"):
            integrate(lambda w: (w < 0.3) * 1.0, 0.0, 1.0)
