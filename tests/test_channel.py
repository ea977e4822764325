import dataclasses
import math

import numpy as np
import pytest

from eelink import (
    DomainError,
    SystemParams,
    cdf,
    db_to_linear,
    dbm_to_watt,
    integrate,
    path_loss_db,
    pdf,
    sample_gains,
    tail_probability,
)


def closed_cdf_m2(g):
    return 1.0 - math.exp(-2.0 * g) * (2.0 * g + 1.0)


class TestConversions:
    def test_dbm(self):
        assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-14)
        assert dbm_to_watt(43.0) == pytest.approx(19.952623149688797, rel=1e-14)
        assert dbm_to_watt(-174.0) == pytest.approx(3.9810717055349695e-21, rel=1e-12)

    def test_db(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-14)

    def test_path_loss(self):
        assert path_loss_db(1.0) == 128.1
        assert path_loss_db(10.0) == pytest.approx(165.7, rel=1e-14)
        assert path_loss_db(0.1) == pytest.approx(90.5, rel=1e-14)
        with pytest.raises(DomainError):
            path_loss_db(0.0)
        with pytest.raises(DomainError):
            path_loss_db(-2.0)


class TestSystemParams:
    def test_distance_fixes_path_loss(self, params):
        assert params.path_loss == pytest.approx(db_to_linear(128.1), rel=1e-14)

    def test_exactly_one_of_distance_and_path_loss(self):
        base = dict(
            slot_duration=1e-3,
            bandwidth=180e3,
            noise_density=dbm_to_watt(-174.0),
            tx_power=1.0,
            circuit_power=0.1,
        )
        with pytest.raises(DomainError):
            SystemParams(**base)
        with pytest.raises(DomainError):
            SystemParams(**base, distance_km=1.0, path_loss=1e12)

    def test_power_ordering(self):
        with pytest.raises(DomainError):
            SystemParams(
                slot_duration=1e-3,
                bandwidth=180e3,
                noise_density=1e-20,
                tx_power=0.5,
                circuit_power=0.1,
                idle_power=1.0,
                distance_km=1.0,
            )

    def test_fading_floor(self):
        with pytest.raises(DomainError):
            SystemParams(
                slot_duration=1e-3,
                bandwidth=180e3,
                noise_density=1e-20,
                tx_power=1.0,
                circuit_power=0.1,
                fading_m=0.3,
                distance_km=1.0,
            )

    def test_fading_ceiling(self, params):
        # Gamma(m) is finite up to m = 171.62; past 171 the analytics
        # overflow, so the link is rejected up front.
        assert dataclasses.replace(params, fading_m=171.0).fading_m == 171.0
        with pytest.raises(DomainError, match="Gamma\\(m\\) passes the float range"):
            dataclasses.replace(params, fading_m=171.7)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "slot_duration", "bandwidth", "noise_density", "tx_power", "circuit_power",
        "idle_power", "fading_m", "distance_km", "path_loss",
    ])
    def test_nonfinite_field_rejected(self, params, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            dataclasses.replace(params, **{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("tx_power", 0.0, "tx_power must be positive"),
        ("tx_power", -1.0, "tx_power must be positive"),
        ("circuit_power", -30.0, "circuit_power must be nonnegative"),
        ("circuit_power", -1e-300, "circuit_power must be nonnegative"),
    ])
    def test_power_sign_rejected(self, params, field, value, message):
        with pytest.raises(DomainError, match=message):
            dataclasses.replace(params, **{field: value})

    def test_zero_circuit_power_accepted(self, params):
        assert dataclasses.replace(params, circuit_power=0.0).circuit_power == 0.0

    @pytest.mark.parametrize("distance_km", [1e100, 1e300])
    def test_overflowing_path_loss_rejected(self, params, distance_km):
        # 128.1 + 37.6 log10(d) dB passes 10^308 from about d = 1.9e78 km.
        with pytest.raises(DomainError, match="path loss past the float range"):
            dataclasses.replace(params, distance_km=distance_km, path_loss=None)


class TestDensity:
    def test_values_m2(self, params):
        assert pdf(params, 0.0) == 0.0
        assert pdf(params, 0.5) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)

    def test_rayleigh_case(self, params):
        import dataclasses

        rayleigh = dataclasses.replace(params, fading_m=1.0)
        assert pdf(rayleigh, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_negative_gain_rejected(self, params):
        with pytest.raises(DomainError):
            pdf(params, -0.1)
        with pytest.raises(DomainError):
            pdf(params, np.array([0.5, -1e-3, 2.0]))

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.5])
    def test_array_matches_scalar(self, params, m):
        import dataclasses

        p = dataclasses.replace(params, fading_m=m)
        gains = np.array([0.0, 1e-30, 0.3, 1.0, 7.5, 40.0])
        got = pdf(p, gains)
        assert isinstance(got, np.ndarray) and got.shape == gains.shape
        scalar = [pdf(p, float(g)) for g in gains]
        assert all(isinstance(v, float) for v in scalar)
        np.testing.assert_allclose(got, scalar, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.5])
    def test_unit_mass(self, params, m):
        import dataclasses

        p = dataclasses.replace(params, fading_m=m)
        assert integrate(lambda g: pdf(p, g), 0.0) == pytest.approx(1.0, abs=1e-9)


class TestCdf:
    def test_endpoints(self, params):
        assert cdf(params, 0.0) == 0.0
        assert cdf(params, 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_m2(self, params):
        for g in (0.1, 0.5323, 1.0, 2.5):
            assert cdf(params, g) == pytest.approx(closed_cdf_m2(g), abs=1e-10)

    def test_complementarity_exact(self, params):
        for g in (0.0, 0.3, 0.5323, 2.0, 7.0):
            assert cdf(params, g) + tail_probability(params, g) == 1.0

    def test_nondecreasing(self, params):
        grid = np.linspace(0.0, 6.0, 200)
        values = [cdf(params, float(g)) for g in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matches_density_integral_general_m(self, params):
        import dataclasses

        p = dataclasses.replace(params, fading_m=3.5)
        for g in (0.4, 1.2):
            assert tail_probability(p, g) == pytest.approx(
                integrate(lambda x: pdf(p, x), g), abs=1e-9
            )

    def test_negative_rejected(self, params):
        with pytest.raises(DomainError):
            cdf(params, -1.0)


class TestTailProbability:
    # At an integer m the tail is the finite sum e^-z sum_{k<m} z^k / k!.

    def test_integer_m_matches_mpmath(self, params):
        # Relative error against 40-digit mpmath wherever the tail is above
        # 1e-300, over gamma0 log-spaced from 1e-6 to 300 (z up to 9000, past
        # where e^-z underflows); and never above 1, which p_idle = 1 - p_tr
        # and the slope's log rely on.
        mpmath = pytest.importorskip("mpmath")
        gammas = [10.0 ** (-6.0 + i * (math.log10(300.0) + 6.0) / 119) for i in range(119)]
        gammas.append(300.0)
        worst = 0.0
        with mpmath.workdps(40):
            for m in (1, 2, 3, 5, 20, 30):
                link = dataclasses.replace(params, fading_m=float(m))
                for g in gammas:
                    got = tail_probability(link, g)
                    assert 0.0 <= got <= 1.0, (m, g, got)
                    want = mpmath.gammainc(m, m * mpmath.mpf(g), regularized=True)
                    if want >= mpmath.mpf("1e-300"):
                        worst = max(worst, float(abs(got - want) / want))
        assert worst <= 1e-12

    @pytest.mark.parametrize("m", [1.0, 2.0, 20.0, 2.5])
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_threshold_is_a_domain_error(self, params, m, threshold):
        with pytest.raises(DomainError, match="threshold must be nonnegative and finite"):
            tail_probability(dataclasses.replace(params, fading_m=m), threshold)

    def test_deep_tail_underflows_to_zero(self, params):
        # z = 800 at m = 2: the tail, about 1e-345, is below the float range.
        assert tail_probability(params, 400.0) == 0.0


class TestSampler:
    def test_unit_mean(self, params):
        rng = np.random.default_rng(1)
        draws = sample_gains(params, rng, 1_000_000)
        assert abs(draws.mean() - 1.0) < 0.005

    def test_fraction_below_threshold(self, params):
        rng = np.random.default_rng(1)
        draws = sample_gains(params, rng, 1_000_000)
        frac = np.count_nonzero(draws < 0.5323) / draws.size
        assert abs(frac - cdf(params, 0.5323)) < 0.003

    def test_deterministic(self, params):
        a = sample_gains(params, np.random.default_rng(7), 1000)
        b = sample_gains(params, np.random.default_rng(7), 1000)
        assert np.array_equal(a, b)

    def test_kolmogorov_smirnov(self, params):
        rng = np.random.default_rng(2)
        draws = np.sort(sample_gains(params, rng, 1_000_000))
        model = 1.0 - np.exp(-2.0 * draws) * (2.0 * draws + 1.0)
        n = draws.size
        upper = np.arange(1, n + 1) / n - model
        lower = model - np.arange(0, n) / n
        ks = max(upper.max(), lower.max())
        assert ks <= 0.002


class TestDerivedConstants:
    """The link constants SystemParams derives from its fields."""

    def test_reference_values(self, params):
        assert params.exponent_rate == pytest.approx(-259.68510736001343, rel=1e-13)
        assert params.mean_snr == pytest.approx(4312.483981270508, rel=1e-9)
        assert params.exponent_rate < 0.0 < params.mean_snr

    def test_bandwidth_scaling(self, params):
        doubled = dataclasses.replace(params, bandwidth=2 * params.bandwidth)
        assert doubled.exponent_rate == pytest.approx(2 * params.exponent_rate, rel=1e-13)
        assert doubled.mean_snr == pytest.approx(0.5 * params.mean_snr, rel=1e-13)

    def test_read_only_and_not_fields(self, params):
        # Attributes set when the link is built, not fields: the CLI's keys
        # and --dump-config iterate the dataclass fields, and the constants
        # follow their inputs.
        assert "mean_snr" not in params.__dataclass_fields__
        assert "exponent_rate" not in params.__dataclass_fields__
        with pytest.raises(AttributeError):
            params.mean_snr = 1.0

    def test_set_once_with_the_formulas_bits(self, params):
        assert params.mean_snr == params.tx_power / (
            params.path_loss * params.noise_density * params.bandwidth
        )
        assert params.exponent_rate == -params.slot_duration * params.bandwidth * math.log2(math.e)
        twin = dataclasses.replace(params)
        assert twin == params and hash(twin) == hash(params)
        brighter = dataclasses.replace(params, tx_power=4.0 * params.tx_power)
        assert brighter.mean_snr == 4.0 * params.mean_snr

    @pytest.mark.parametrize("changes", [
        {"noise_density": 1e-300, "bandwidth": 1e-300},  # the noise power underflows to 0
        {"tx_power": 1e300, "noise_density": 1e-30},  # the mean SNR overflows
        {"slot_duration": 1e300, "bandwidth": 1e10},  # the service exponent overflows
    ])
    def test_out_of_float_range_is_a_domain_error(self, params, changes):
        with pytest.raises(DomainError, match="passes the float range"):
            dataclasses.replace(params, **changes)
