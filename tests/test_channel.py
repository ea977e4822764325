import dataclasses
import math
import sys

import numpy as np
import pytest

from eelink import (
    DomainError,
    SystemParams,
    db_to_linear,
    dbm_to_watt,
    integrate,
    path_loss_db,
    pdf,
    sample_gains,
    tail_probability,
)
from eelink.channel import _density, draw_buffer_size


def uniform_product_gains(seed, n):
    # The m = 2 reference: -ln(V1 * V2) / 2 with V = 1 - U for consecutive
    # uniforms U, an Erlang(2) draw of unit mean.
    u = np.random.default_rng(seed).random((n, 2))
    return -0.5 * np.log((1.0 - u[:, 0]) * (1.0 - u[:, 1]))


class ConstantUniforms:
    """A generator stub whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out.fill(self.u)


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

    @pytest.mark.parametrize("field, value", [
        ("tx_power", "20"), ("fading_m", True), ("bandwidth", None), ("distance_km", "1"),
        ("path_loss", np.bool_(True)),
    ])
    def test_wrong_type_rejected(self, params, field, value):
        kw = {field: value}
        if field == "path_loss":
            kw["distance_km"] = None
        with pytest.raises(DomainError, match=f"{field} must be a real number"):
            dataclasses.replace(params, **kw)

    def test_past_the_float_range_rejected(self, params):
        # An int too large for a float would leave the SNR's division with
        # a bare OverflowError.
        with pytest.raises(DomainError, match="tx_power must be finite"):
            dataclasses.replace(params, tx_power=10**400)

    @pytest.mark.parametrize("field, value, message", [
        ("tx_power", 0.0, "tx_power must be positive"),
        ("tx_power", -1.0, "tx_power must be positive"),
        ("circuit_power", -30.0, "circuit_power must be nonnegative"),
        ("circuit_power", -1e-300, "circuit_power must be nonnegative"),
    ])
    def test_power_sign_rejected(self, params, field, value, message):
        with pytest.raises(DomainError, match=message):
            dataclasses.replace(params, **{field: value})

    @pytest.mark.parametrize("changes, message", [
        ({"slot_duration": 0.0}, "slot_duration must be positive"),
        ({"slot_duration": -1e-3}, "slot_duration must be positive"),
        ({"bandwidth": 0.0}, "bandwidth must be positive"),
        ({"bandwidth": -180e3}, "bandwidth must be positive"),
        ({"noise_density": 0.0}, "noise_density must be positive"),
        ({"noise_density": -1e-20}, "noise_density must be positive"),
        ({"idle_power": -1e-3}, "idle_power must be nonnegative"),
        ({"path_loss": 0.5, "distance_km": None}, "path_loss must be at least 1"),
        ({"path_loss": 0.0, "distance_km": None}, "path_loss must be at least 1"),
    ])
    def test_out_of_range_field_rejected(self, params, changes, message):
        with pytest.raises(DomainError, match=message):
            dataclasses.replace(params, **changes)

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

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_gain_rejected(self, params, m, bad):
        p = dataclasses.replace(params, fading_m=m)
        with pytest.raises(DomainError, match="gain must be nonnegative and finite"):
            pdf(p, bad)
        with pytest.raises(DomainError, match="gain must be a real number"):
            pdf(p, np.array([0.5, bad, 2.0]))

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.5])
    def test_array_matches_scalar(self, params, m):
        # The quadratures' integrands evaluate the checked density's formula
        # on arrays of nodes.
        p = dataclasses.replace(params, fading_m=m)
        gains = np.array([0.0, 1e-30, 0.3, 1.0, 7.5, 40.0])
        with np.errstate(divide="ignore"):  # log 0 = -inf is meant, as in pdf
            got = _density(p, gains)
        assert isinstance(got, np.ndarray) and got.shape == gains.shape
        scalar = [pdf(p, float(g)) for g in gains]
        assert all(isinstance(v, float) for v in scalar)
        np.testing.assert_allclose(got, scalar, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.5])
    def test_unit_mass(self, params, m):
        p = dataclasses.replace(params, fading_m=m)
        assert integrate(lambda g: _density(p, g), 0.0) == pytest.approx(1.0, abs=1e-9)


class TestCdf:
    # P(gain < threshold) is the complement of the tail.
    def test_endpoints(self, params):
        assert 1.0 - tail_probability(params, 0.0) == 0.0
        assert 1.0 - tail_probability(params, 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_m2(self, params):
        for g in (0.1, 0.5323, 1.0, 2.5):
            below = 1.0 - tail_probability(params, g)
            assert below == pytest.approx(closed_cdf_m2(g), abs=1e-10)

    def test_complementarity_exact(self, params):
        for g in (0.0, 0.3, 0.5323, 2.0, 7.0):
            assert (1.0 - tail_probability(params, g)) + tail_probability(params, g) == 1.0

    def test_nondecreasing(self, params):
        grid = np.linspace(0.0, 6.0, 200)
        values = [1.0 - tail_probability(params, float(g)) for g in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matches_density_integral_general_m(self, params):
        p = dataclasses.replace(params, fading_m=3.5)
        for g in (0.4, 1.2):
            assert tail_probability(p, g) == pytest.approx(
                integrate(lambda x: _density(p, x), g), abs=1e-9
            )

    def test_negative_rejected(self, params):
        with pytest.raises(DomainError):
            1.0 - tail_probability(params, -1.0)


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

    @pytest.mark.parametrize("threshold", [1e308, sys.float_info.max])
    @pytest.mark.parametrize("m", [2.0, 171.0])
    def test_z_past_the_float_range_gives_zero(self, params, m, threshold):
        # m * threshold is inf; the incomplete gamma refused it.
        assert tail_probability(dataclasses.replace(params, fading_m=m), threshold) == 0.0

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
        assert abs(frac - (1.0 - tail_probability(params, 0.5323))) < 0.003

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

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.0, 5.5])
    def test_dkw_band_on_the_gamma_route(self, params, m):
        # The gamma law against 1 - tail_probability on both routes: the
        # rng.gamma draws off m = 2, and the product of two uniforms at
        # m = 2 (test_kolmogorov_smirnov also takes that route's distance
        # over all its draws, at another seed). By the DKW inequality,
        # P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2): with n = 1e6 draws
        # and eps = 0.003 a correct sampler fails with probability below
        # 3.1e-8. The distance is taken at 1001 order statistics, each once
        # from above and once from below, which bounds it from below, so the
        # band holds there too.
        n, eps = 1_000_000, 0.003
        link = dataclasses.replace(params, fading_m=m)
        draws = np.sort(sample_gains(link, np.random.default_rng(5), n))
        ranks = np.linspace(0, n - 1, 1001).astype(int)
        model = np.array([1.0 - tail_probability(link, float(draws[k])) for k in ranks])
        ks = max(((ranks + 1) / n - model).max(), (model - ranks / n).max())
        assert ks <= eps

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 3.0, 4.0, 5.5, 171.0])
    def test_gamma_route_bit_for_bit(self, params, m):
        # Off m = 2 the draws are numpy's gamma draws.
        link = dataclasses.replace(params, fading_m=m)
        got = sample_gains(link, np.random.default_rng(9), 10_001)
        assert np.array_equal(got, np.random.default_rng(9).gamma(m, 1.0 / m, 10_001))

    def test_exponential_sum_route(self, params):
        # At m = 2 each gain is the halved sum of two unit exponentials
        # -ln V, taken as -ln(V1 * V2) / 2 with V = 1 - U for two
        # consecutive uniforms U, into a contiguous array.
        got = sample_gains(params, np.random.default_rng(9), 10_001)
        assert got.tobytes() == uniform_product_gains(9, 10_001).tobytes()
        assert got.flags.c_contiguous

    def test_uniforms_at_the_ends_give_finite_gains(self, params):
        # U = 0 gives V = 1 and a gain of 0. The largest U, 1 - 2^-53, gives
        # V = 2^-53 exactly and the largest gain, 53 ln 2; a log of U * U
        # in place of V * V would be 2^-53 there, and inf at U = 0.
        low = sample_gains(params, ConstantUniforms(0.0), 4)
        assert np.all(low == 0.0)
        high = sample_gains(params, ConstantUniforms(1.0 - 2.0**-53), 4)
        assert np.all(np.isfinite(high))
        assert high == pytest.approx(np.full(4, 53.0 * math.log(2.0)), rel=1e-15)

    @pytest.mark.parametrize("m", [2.0, 0.5, 1.0, 1.5, 3.0, 4.0, 5.5, 171.0])
    def test_out_has_the_reference_bits(self, params, m):
        # The gains land in out's first values, with the bits of the two
        # references above: numpy's gamma draws off m = 2, and the halved
        # negative log of a product of two uniforms at m = 2.
        link = dataclasses.replace(params, fading_m=m)
        out = np.full(3 * 10_001 + 5, np.nan)
        got = sample_gains(link, np.random.default_rng(9), 10_001, out=out)
        assert got.size == 10_001 and np.shares_memory(got, out[:10_001])
        if m == 2.0:
            want = uniform_product_gains(9, 10_001)
        else:
            want = np.random.default_rng(9).gamma(m, 1.0 / m, 10_001)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2.0, 1.5])
    def test_out_split_across_calls_reads_one_stream(self, params, m):
        # out sized by draw_buffer_size for the larger call serves both.
        link = dataclasses.replace(params, fading_m=m)
        rng, out = np.random.default_rng(3), np.empty(draw_buffer_size(link, 600))
        head = sample_gains(link, rng, 600, out=out).copy()
        tail = sample_gains(link, rng, 400, out=out)
        whole = sample_gains(link, np.random.default_rng(3), 1000)
        assert np.concatenate([head, tail]).tobytes() == whole.tobytes()

    @pytest.mark.parametrize(
        "m, out",
        [
            (2.0, np.empty(3 * 100 - 1)),  # m = 2 needs room for the pairs
            (1.5, np.empty(99)),
            (1.5, np.empty(100, dtype=np.float32)),
            (1.5, np.empty(100, dtype=np.int64)),
            (1.5, np.empty((100, 1))),
            (1.5, np.empty(200)[::2]),
            (1.5, np.empty(100).astype(">f8")),
            (1.5, [0.0] * 100),
            (1.5, np.frombuffer(bytes(8 * 100))),  # read-only
        ],
    )
    def test_unusable_out_rejected(self, params, m, out):
        link = dataclasses.replace(params, fading_m=m)
        with pytest.raises(DomainError, match="out must be"):
            sample_gains(link, np.random.default_rng(1), 100, out=out)

    @pytest.mark.parametrize("size", [-1, 2.5, "3", True])
    @pytest.mark.parametrize("m", [2.0, 1.5])
    def test_bad_size_rejected(self, params, m, size):
        # A negative size with out sliced out[:-1] and filled all but one
        # value; without out numpy raised a bare ValueError or TypeError.
        link = dataclasses.replace(params, fading_m=m)
        for out in (None, np.empty(300)):
            with pytest.raises(DomainError, match="size must be a nonnegative integer"):
                sample_gains(link, np.random.default_rng(1), size, out=out)



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
