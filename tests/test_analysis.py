import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eelink import (
    METHOD_CLOSED,
    METHOD_EXACT,
    DomainError,
    QosSpec,
    analyze,
    delay_outage_estimate,
    ee_trend,
    effective_capacity,
    energy_efficiency,
    find_optimal_threshold,
    find_theta_threshold,
    invert_effective_capacity,
    log_service_mgf,
    mean_service_rate,
    service_mgf,
    sweep,
    tail_probability,
    upper_incomplete_gamma,
)
from eelink import analysis, channel, errors
from eelink.analysis import _logaddexp

# Values frozen from 40-digit evaluation of the closed forms.
ALPHA_REF = 1519677.5422946024          # theta 1e-4, gamma0 0.5323
EE_REF = 106223.13552537811
EE0_REF = 104773.27076544819
MGF_AT_1 = 0.91687443628970887          # theta 1e-4, gamma0 1.0, by quadrature
TREND_AT_025 = 0.14942636298342384
TREND_AT_1 = -0.014368757787333229

NONFINITE = (math.nan, math.inf, -math.inf)
# Every exception type eelink.errors defines.
ERRORS = tuple(v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception))


class TestEffectiveCapacity:
    def test_published_operating_point(self, params, qos_1e4):
        alpha = effective_capacity(params, qos_1e4, 0.5323)
        assert alpha == pytest.approx(1519.7e3, rel=1e-3)
        assert alpha == pytest.approx(ALPHA_REF, rel=1e-10)

    def test_vanishes_for_large_threshold(self, params, qos_1e4):
        values = [effective_capacity(params, qos_1e4, g) for g in (2.0, 4.0, 8.0, 16.0, 32.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    @pytest.mark.parametrize("m", [1.0, 1.5, 2.0, 3.0, 5.5])
    def test_methods_agree(self, params, qos_1e4, m):
        link = dataclasses.replace(params, fading_m=m)
        exact = effective_capacity(link, qos_1e4, 1.0, METHOD_EXACT)
        closed = effective_capacity(link, qos_1e4, 1.0, METHOD_CLOSED)
        # The closed form replaces 1 + snr*g by snr*g inside the integral;
        # the measured gap at this point runs from 1.43e-5 (m = 1) through
        # 1.63e-5 (m = 2) to 1.90e-5 (m = 5.5), frozen as a regression bound.
        assert abs(exact - closed) / exact < 2e-5

    def test_nonincreasing_in_threshold(self, params, qos_1e4):
        for method in (METHOD_CLOSED, METHOD_EXACT):
            grid = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
            values = [effective_capacity(params, qos_1e4, g, method) for g in grid]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_theta(self, params):
        for method in (METHOD_CLOSED, METHOD_EXACT):
            values = [
                effective_capacity(params, QosSpec(theta=t), 0.5, method)
                for t in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
            ]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_mean_rate_limit(self, params):
        tiny = QosSpec(theta=1e-9)
        for g in (0.0, 0.5):
            assert effective_capacity(params, tiny, g) == pytest.approx(
                mean_service_rate(params, g), rel=1e-3
            )

    def test_exact_capacity_below_mean_rate_at_tiny_theta(self, params):
        # -log E[exp(-theta s)] <= theta E[s] (Jensen), with a gap of about
        # 1e-13 relative at theta = 1e-14: 1 - F must not cancel against F.
        alpha = effective_capacity(params, QosSpec(theta=1e-14), 0.0, METHOD_EXACT)
        mean_rate = mean_service_rate(params, 0.0)
        assert alpha <= mean_rate
        assert alpha == pytest.approx(mean_rate, rel=1e-12)

    def test_unknown_method(self, params, qos_1e4):
        with pytest.raises(DomainError):
            effective_capacity(params, qos_1e4, 0.5, "closed_form_m2")

    def test_closed_form_domain_edge_at_zero(self, params):
        too_strict = QosSpec(theta=-2.2 / params.exponent_rate)
        with pytest.raises(DomainError):
            effective_capacity(params, too_strict, 0.0, METHOD_CLOSED)
        # Away from zero the incomplete gamma handles the negative order.
        assert effective_capacity(params, too_strict, 0.5, METHOD_CLOSED) > 0.0

    @pytest.mark.parametrize("method", [METHOD_CLOSED, METHOD_EXACT])
    @pytest.mark.parametrize(
        "theta, slot_duration",
        # The last product is subnormal, not 0; alpha and EE lose their bits.
        [(5e-324, 1e-3), (1e-30, 1e-300), (1e-310, 1e-3)],
    )
    def test_theta_times_slot_rounding_to_zero_is_a_domain_error(
        self, params, method, theta, slot_duration
    ):
        link = dataclasses.replace(params, slot_duration=slot_duration)
        with pytest.raises(DomainError, match=r"theta \* slot_duration rounds to 0"):
            effective_capacity(link, QosSpec(theta=theta), 0.5, method)


class TestModesAndPower:
    def test_zero_threshold(self, params, qos_1e4):
        r = analyze(params, qos_1e4, 0.0)
        assert (r.p_tr, r.p_idle) == (1.0, 0.0)

    def test_published_threshold(self, params, qos_1e4):
        r = analyze(params, qos_1e4, 0.5323)
        assert r.p_tr == pytest.approx(0.7120098759495865, abs=1e-10)
        assert r.p_tr + r.p_idle == 1.0

    def test_deep_gating(self, params, qos_1e4):
        r = analyze(params, qos_1e4, 40.0)
        assert r.p_tr < 1e-12
        assert r.p_idle > 1.0 - 1e-12

    def test_total_power_endpoints(self, params, qos_1e4):
        assert analyze(params, qos_1e4, 0.0).total_power == pytest.approx(
            20.0526231496888, rel=1e-13
        )
        assert analyze(params, qos_1e4, 40.0).total_power == pytest.approx(
            params.circuit_power, abs=1e-12
        )

    @pytest.mark.parametrize("gamma0", NONFINITE)
    def test_nonfinite_threshold_rejected(self, params, qos_1e4, gamma0):
        for call in (
            lambda: ee_trend(params, qos_1e4, gamma0),
            lambda: log_service_mgf(params, qos_1e4, gamma0, METHOD_EXACT),
            lambda: analyze(params, qos_1e4, gamma0),
            lambda: mean_service_rate(params, gamma0),
        ):
            with pytest.raises(DomainError, match="gamma0 must be nonnegative and finite"):
                call()

    def test_equal_mode_powers_collapse(self, params, qos_1e4):
        flat = dataclasses.replace(params, tx_power=2.0, idle_power=2.0)
        values = {analyze(flat, qos_1e4, g).total_power for g in (0.0, 0.5, 1.0, 3.0)}
        assert values == {flat.circuit_power + 2.0}

    @pytest.mark.parametrize("gamma0", [1e306, 1e308])
    @pytest.mark.parametrize("m", [2.0, 171.0])
    def test_no_slot_transmits(self, params, qos_1e4, m, gamma0):
        # p_tr rounds to 0, and m * 1e308 passes the float range. The exact
        # quadrature's integrand overflowed there (a RuntimeWarning, which
        # the suite's filter makes an error), and so did the mean rate's.
        link = dataclasses.replace(params, fading_m=m)
        r = analyze(link, qos_1e4, gamma0, METHOD_EXACT)
        assert (r.p_tr, r.p_idle, r.effective_capacity, r.ee) == (0.0, 1.0, 0.0, 0.0)
        assert r.log_mgf.hex() == (-0.0).hex()
        assert mean_service_rate(link, gamma0) == 0.0

    @pytest.mark.parametrize("m, gamma0", [(2.0, 400.0), (171.0, 10.0)])
    def test_no_slot_transmits_runs_no_quadrature(self, params, qos_1e4, m, gamma0, monkeypatch):
        # A finite z where the tail underflows: log F has the quadrature's
        # bits, -0.0, and neither call integrates.
        link = dataclasses.replace(params, fading_m=m)
        assert tail_probability(link, gamma0) == 0.0
        quadrature = analysis._log_mgf_quadrature(link, qos_1e4.theta, gamma0)

        def no_quadrature(*args, **kwargs):
            raise AssertionError("integrate was called")

        monkeypatch.setattr(analysis, "integrate", no_quadrature)
        got = log_service_mgf(link, qos_1e4, gamma0, METHOD_EXACT)
        assert got.hex() == quadrature.hex() == (-0.0).hex()
        assert mean_service_rate(link, gamma0) == 0.0


class TestEnergyEfficiency:
    def test_published_rows(self, params):
        assert energy_efficiency(params, QosSpec(theta=1e-4), 0.5323) == pytest.approx(
            1.0623e5, rel=5e-3
        )
        assert energy_efficiency(params, QosSpec(theta=1e-4), 0.0) == pytest.approx(
            1.0478e5, rel=5e-3
        )
        assert energy_efficiency(params, QosSpec(theta=1e-6), 1.6606) == pytest.approx(
            1.1544e5, rel=5e-3
        )

    def test_frozen_values(self, params, qos_1e4):
        assert energy_efficiency(params, qos_1e4, 0.5323) == pytest.approx(EE_REF, rel=1e-10)
        assert energy_efficiency(params, qos_1e4, 0.0) == pytest.approx(EE0_REF, rel=1e-10)

    def test_strategy_off_consistency(self, params, qos_1e4):
        alpha0 = effective_capacity(params, qos_1e4, 0.0)
        assert energy_efficiency(params, qos_1e4, 0.0) == alpha0 / (
            params.circuit_power + params.tx_power
        )

    def test_is_analyze_ee(self, params):
        # Bit for bit, closed form on the full grid and quadrature on a
        # coarser one.
        for theta in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 5e-3):
            qos = QosSpec(theta=theta)
            for g in np.linspace(0.0, 20.0, 81).tolist():
                assert energy_efficiency(params, qos, g) == analyze(params, qos, g).ee, (theta, g)
        for theta in (1e-7, 1e-4, 5e-3):
            qos = QosSpec(theta=theta)
            for g in (0.0, 0.5, 4.0, 20.0):
                expected = analyze(params, qos, g, METHOD_EXACT).ee
                assert energy_efficiency(params, qos, g, METHOD_EXACT) == expected, (theta, g)

    def test_closed_form_computes_its_tail_once(self, params, qos_1e4, monkeypatch):
        # The tail probability is computed once, shared by the idle mass and
        # the power. At an integer m it is a finite sum, so the service
        # moment makes the only incomplete gamma call; at any other m the
        # tail makes a second. The link's memo of the closed form's log
        # Gamma starts empty, so no earlier test's point answers the call.
        params._closed_tails.clear()
        calls = []

        def counted(v, z):
            calls.append((v, z))
            return upper_incomplete_gamma(v, z)

        monkeypatch.setattr(analysis, "upper_incomplete_gamma", counted)
        monkeypatch.setattr(channel, "upper_incomplete_gamma", counted)
        assert energy_efficiency(params, qos_1e4, 0.5323) == pytest.approx(EE_REF, rel=1e-10)
        assert len(calls) == 1
        calls.clear()
        energy_efficiency(dataclasses.replace(params, fading_m=1.5), qos_1e4, 0.5323)
        assert [v for v, _ in calls] == [1.5, 1.5 + params.exponent_rate * qos_1e4.theta]

    @pytest.mark.parametrize("method", [METHOD_CLOSED, METHOD_EXACT])
    def test_zero_total_power_is_a_domain_error(self, params, method):
        # No circuit or idle power, and a threshold so high that the
        # transmit probability underflows to 0.
        link = dataclasses.replace(params, circuit_power=0.0)
        assert tail_probability(link, 400.0) == 0.0
        with pytest.raises(DomainError, match="total power is 0 W"):
            analyze(link, QosSpec(theta=1e-4), 400.0, method)


def hex_floats(value):
    """value with every float as its hex string, through lists, tuples and
    dataclasses, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [hex_floats(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f: hex_floats(getattr(value, f)) for f in value.__dataclass_fields__}
    return value


# Closed-form work that reads the memo of log Gamma(m + a, m gamma0): the
# paper's table points, a sweep and the three searches.
MEMO_CASES = {
    "table": lambda link: [
        analyze(link, QosSpec(theta=theta), g)
        for theta, g in ((1e-4, 0.5323), (1e-5, 1.6293), (1e-6, 1.6606), (1e-7, 1.6636))
    ],
    "sweep": lambda link: sweep(link, [1e-5, 1e-4], (0.0, 3.0), "EE", 40),
    "optimum": lambda link: [
        find_optimal_threshold(link, QosSpec(theta=theta)) for theta in (1e-5, 1e-4, 1e-3)
    ],
    "inversion": lambda link: invert_effective_capacity(link, QosSpec(theta=1e-4), 1e6),
    "boundary": lambda link: find_theta_threshold(link, 1e-5, 1e-2),
}


@pytest.fixture
def gamma_calls(monkeypatch):
    """The (v, z) of every incomplete gamma call analysis makes: the closed
    form's, not the tail probability's."""
    calls = []

    def counted(v, z):
        calls.append((v, z))
        return upper_incomplete_gamma(v, z)

    monkeypatch.setattr(analysis, "upper_incomplete_gamma", counted)
    return calls


class TestClosedTailMemo:
    @pytest.mark.parametrize("m", [2.0, 1.5])
    @pytest.mark.parametrize("case", sorted(MEMO_CASES))
    def test_warm_equals_cold(self, params, gamma_calls, case, m):
        # The same work on a fresh link, again on that link with its memo
        # warm, and on another fresh link after all the other work: every
        # run gives the cold bits, and the warm run makes no call.
        run = MEMO_CASES[case]
        link = dataclasses.replace(params, fading_m=m)
        cold = hex_floats(run(link))
        assert gamma_calls
        gamma_calls.clear()
        assert hex_floats(run(link)) == cold
        assert gamma_calls == []
        other = dataclasses.replace(params, fading_m=m)
        for name in sorted(MEMO_CASES):
            if name != case:
                MEMO_CASES[name](other)
        assert hex_floats(run(other)) == cold

    @pytest.mark.parametrize("case", sorted(MEMO_CASES))
    def test_each_link_has_its_own_memo(self, params, gamma_calls, case):
        # An equal link built afresh makes the same calls again: no state
        # passes between links, so repeated work counts the same calls.
        run = MEMO_CASES[case]
        first = dataclasses.replace(params)
        run(first)
        calls, kept = list(gamma_calls), dict(first._closed_tails)
        gamma_calls.clear()
        second = dataclasses.replace(params)
        assert second._closed_tails == {}
        run(second)
        assert gamma_calls == calls
        assert second._closed_tails == first._closed_tails == kept

    def test_refusal_is_not_kept(self, params, qos_1e4, gamma_calls):
        # Gamma(1.974, 800) underflows: each call raises the same error
        # afresh, and the memo keeps nothing.
        link = dataclasses.replace(params)
        messages = []
        for _ in range(2):
            with pytest.raises(DomainError, match="underflows the float range") as raised:
                analyze(link, qos_1e4, 400.0)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert len(gamma_calls) == 2 and gamma_calls[0] == gamma_calls[1]
        assert link._closed_tails == {}

    def test_size_is_bounded(self, params, gamma_calls):
        # 20 theta rows of 20 thresholds ask for 400 distinct values. Once
        # full, the memo drops its oldest entries, so the last row is kept.
        link = dataclasses.replace(params)
        sizes = []
        for k in range(20):
            sweep(link, [1e-5 * 1.3**k], (0.0, 3.0), "F", 20)
            sizes.append(len(link._closed_tails))
        assert max(sizes) == sizes[-1] == analysis._CLOSED_TAIL_MEMO
        gamma_calls.clear()
        sweep(link, [1e-5 * 1.3**19], (0.0, 3.0), "F", 20)
        assert gamma_calls == []


class TestServiceMgf:
    def test_zero_threshold_boundary_value(self, params, qos_1e4):
        a = params.exponent_rate * qos_1e4.theta
        expected = math.exp(a * math.log(params.mean_snr / 2.0)) * math.gamma(2.0 + a)
        assert service_mgf(params, qos_1e4, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_tends_to_one(self, params, qos_1e4):
        assert 0.999999 < service_mgf(params, qos_1e4, 16.0) < 1.0

    def test_derived_value(self, params, qos_1e4):
        assert service_mgf(params, qos_1e4, 1.0) == pytest.approx(MGF_AT_1, rel=1e-10)

    def test_closed_form_matches_mpmath(self, params):
        # 40-digit evaluation of the same closed form,
        # log(P(g < gamma0) + (snr / m)^a Gamma(m + a, m gamma0) / Gamma(m)).
        # The absolute term covers the rounding of log(p_idle) under deep
        # gating, where p_idle sits next to 1.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        snr = mpmath.mpf(params.mean_snr)
        for m in (0.5, 1.0, 1.5, 3.0, 5.5):
            link = dataclasses.replace(params, fading_m=m)
            for theta in (1e-6, 1e-4, 1e-3, 5e-3):
                qos = QosSpec(theta=theta)
                a = mpmath.mpf(link.exponent_rate) * theta
                for g in (0.0, 0.05, 0.5, 1.5, 4.0):
                    if g == 0.0 and m + a <= 0:
                        with pytest.raises(DomainError):
                            log_service_mgf(link, qos, g)
                        continue
                    p_idle = mpmath.gammainc(m, 0, m * g, regularized=True)
                    tail = (snr / m) ** a * mpmath.gammainc(m + a, m * g) / mpmath.gamma(m)
                    expected = float(mpmath.log(p_idle + tail))
                    got = log_service_mgf(link, qos, g)
                    assert abs(got - expected) <= 1e-9 * abs(expected) + 1e-15, (m, theta, g)

    def test_closed_form_sum_matches_numpy(self, params):
        # The closed form adds p_idle and the tail in log space without
        # numpy; it must give numpy.logaddexp's bits.
        for theta in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 5e-3):
            a = params.exponent_rate * theta
            for g in np.linspace(0.0, 20.0, 81).tolist():
                log_tail = (
                    a * (math.log(params.mean_snr) - math.log(2.0))
                    + math.log(upper_incomplete_gamma(2.0 + a, 2.0 * g))
                    - math.lgamma(2.0)
                )
                p_idle = 1.0 - tail_probability(params, g)
                expected = float(np.logaddexp(math.log(p_idle), log_tail)) if p_idle else log_tail
                assert log_service_mgf(params, QosSpec(theta=theta), g) == expected, (theta, g)
        for x in (-745.0, -3.25, 0.0, 1e-300, 7.5):
            assert _logaddexp(x, x) == float(np.logaddexp(x, x))
            assert _logaddexp(x, x + 1e-9) == float(np.logaddexp(x + 1e-9, x))

    def test_exact_matches_mpmath(self, params):
        # 20-digit quadrature of 1 - F = E[1 - (1 + snr g)^a; g >= gamma0],
        # then log F = log1p(-(1 - F)). The bound is 1e-12 relative, with an
        # absolute floor of 1e-24 where |log F| < 1e-12 (deep gating at
        # large m, where 1 - F itself is that small).
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(20):
            for m in (0.5, 1.0, 1.5, 2.0, 3.0, 5.5):
                link = dataclasses.replace(params, fading_m=m)
                snr = mpmath.mpf(link.mean_snr)
                log_norm = m * mpmath.log(m) - mpmath.loggamma(m)
                for theta in (1e-7, 1e-4, 5e-3):
                    a = mpmath.mpf(link.exponent_rate) * theta

                    def deficit(g):
                        density = mpmath.exp(log_norm + (m - 1) * mpmath.log(g) - m * g)
                        return -mpmath.expm1(a * mpmath.log1p(snr * g)) * density

                    for g0 in (0.0, 0.5, 4.0, 10.0):
                        cuts = [g0, g0 + 1e-3, g0 + 1.0, g0 + 20.0, mpmath.inf]
                        expected = float(mpmath.log1p(-mpmath.quad(deficit, cuts)))
                        got = log_service_mgf(link, QosSpec(theta=theta), g0, METHOD_EXACT)
                        bound = 1e-12 * max(abs(expected), 1e-12)
                        assert abs(got - expected) <= bound, (m, theta, g0)

    @pytest.mark.parametrize("theta", [1e-6, 1e-5, 1e-4, 1e-3])
    def test_monotone_and_bounded(self, params, theta):
        qos = QosSpec(theta=theta)
        step = 1e-3
        grid = np.arange(0.0, 10.0 + step / 2, step)
        values = np.array([service_mgf(params, qos, float(g)) for g in grid])
        assert np.all(np.diff(values) > 0.0)
        assert np.all(values[1:] > 0.0) and np.all(values[1:] < 1.0)


class TestTrendIndicator:
    def test_signs_at_published_points(self, params, qos_1e4):
        assert ee_trend(params, qos_1e4, 0.25) > 0.0
        assert ee_trend(params, qos_1e4, 1.0) < 0.0

    def test_frozen_values(self, params, qos_1e4):
        assert ee_trend(params, qos_1e4, 0.25) == pytest.approx(TREND_AT_025, rel=1e-10)
        assert ee_trend(params, qos_1e4, 1.0) == pytest.approx(TREND_AT_1, rel=1e-9)

    @pytest.mark.parametrize("method", [METHOD_CLOSED, METHOD_EXACT])
    def test_is_analyze_trend(self, params, method):
        # Each public per-point function, and the value the threshold
        # searches step from, is analyze's field bit for bit.
        for theta in (1e-6, 1e-4):
            qos = QosSpec(theta=theta)
            for g in (0.0, 0.5, 4.0):
                r = analyze(params, qos, g, method)
                got = [
                    energy_efficiency(params, qos, g, method),
                    effective_capacity(params, qos, g, method),
                    log_service_mgf(params, qos, g, method),
                    service_mgf(params, qos, g, method),
                    ee_trend(params, qos, g, method),
                    *(analysis._with_slope(params, theta, g, q, method)[0]
                      for q in ("alpha", "F", "G")),
                ]
                assert got == [
                    r.ee, r.effective_capacity, r.log_mgf, r.service_mgf, r.ee_trend,
                    r.effective_capacity, r.service_mgf, r.ee_trend,
                ], (theta, g)

    def test_strict_qos_always_negative(self, params):
        qos = QosSpec(theta=1e-3)
        for g in np.logspace(-3, math.log10(20.0), 40):
            assert ee_trend(params, qos, float(g)) < 0.0

    def test_sign_matches_ee_slope(self, params):
        # Centered difference of EE against the indicator, skipping points
        # within 1e-4 of an indicator zero.
        h = 1e-5
        for theta in (1e-6, 1e-5, 1e-4, 1e-3):
            qos = QosSpec(theta=theta)
            for g in np.arange(0.05, 5.0001, 0.05):
                g = float(g)
                near_zero = (
                    math.copysign(1.0, ee_trend(params, qos, g - 1e-4))
                    != math.copysign(1.0, ee_trend(params, qos, g + 1e-4))
                )
                if near_zero:
                    continue
                slope = energy_efficiency(params, qos, g + h) - energy_efficiency(
                    params, qos, g - h
                )
                assert math.copysign(1.0, slope) == math.copysign(
                    1.0, ee_trend(params, qos, g)
                ), f"sign mismatch at theta={theta}, gamma0={g}"


class TestSlopes:
    """The analytic slopes in gamma0 that the threshold searches use,
    against a centred difference of the values."""

    @pytest.mark.parametrize("method", [METHOD_CLOSED, METHOD_EXACT])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.0, 5.5, 20.0])
    def test_match_centred_difference(self, params, m, method):
        link = dataclasses.replace(params, fading_m=m)
        swing = link.tx_power - link.idle_power
        eps = np.finfo(float).eps
        for theta in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 5e-3):
            qos = QosSpec(theta=theta)

            def slope(name, g):
                return analysis._with_slope(link, theta, g, name, method)[1]

            if method == METHOD_CLOSED and link.fading_m + link.exponent_rate * theta > 0.0:
                # k_F = 0^a passes the float range at gamma0 = 0: no slope,
                # and a search halves there.
                assert [slope(name, 0.0) for name in ("F", "alpha", "G")] == [None] * 3, theta
            values = {
                "F": lambda g: service_mgf(link, qos, g, method),
                "alpha": lambda g: effective_capacity(link, qos, g, method),
                "G": lambda g: ee_trend(link, qos, g, method),
            }
            for g in (1e-3, 0.01, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0):
                r = analyze(link, qos, g, method)
                f, log_f = r.service_mgf, r.log_mgf
                # Absolute rounding of each value: F inherits that of
                # p_idle = 1 - p_tr, a few ulps of 1, and the rest follows.
                noise = {
                    "F": 1.0,
                    "alpha": 1.0 / (f * theta * link.slot_duration),
                    "G": swing * (abs(log_f + 1.0) + f * abs(log_f)) + r.total_power,
                }
                h = 1e-4 * g
                for name, value in values.items():
                    centred = (value(g + h) - value(g - h)) / (2.0 * h)
                    assert slope(name, g) == pytest.approx(
                        centred, rel=1e-6, abs=64 * eps * noise[name] / h
                    ), (name, theta, g)


class TestDelayOutage:
    def test_no_decay(self):
        assert delay_outage_estimate(1.0, 0.0, 1.0) == 1.0

    def test_empty_buffer(self):
        assert delay_outage_estimate(0.0, 500.0, 1.0) == 0.0

    def test_direct_evaluation(self):
        assert delay_outage_estimate(0.5, 230.0, 0.01) == pytest.approx(
            0.5 * math.exp(-2.3), rel=1e-12
        )

    def test_bad_bound(self):
        for bound in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="delay_bound must be positive"):
                delay_outage_estimate(0.5, 100.0, bound)

    def test_bad_probability(self):
        with pytest.raises(DomainError):
            delay_outage_estimate(1.5, 100.0, 0.01)


class TestAnalyze:
    def test_bundle_consistency(self, params, qos_1e4):
        r = analyze(params, qos_1e4, 0.5323)
        assert r.ee == r.effective_capacity / r.total_power
        assert r.p_tr + r.p_idle == 1.0
        assert r.log_mgf == pytest.approx(math.log(r.service_mgf), rel=1e-12)
        assert 0.0 < r.service_mgf < 1.0

    def test_general_m_exact_fields(self, params, qos_1e4):
        # Every field comes from the method asked for: with quadrature the
        # trend's sign is that of the exact EE's slope.
        link = dataclasses.replace(params, fading_m=3.0)
        h = 1e-5
        for g in np.arange(0.05, 3.0001, 0.05):
            g = float(g)
            r = analyze(link, qos_1e4, g, method=METHOD_EXACT)
            assert r.service_mgf == math.exp(r.log_mgf)
            slope = energy_efficiency(link, qos_1e4, g + h, METHOD_EXACT) - energy_efficiency(
                link, qos_1e4, g - h, METHOD_EXACT
            )
            assert math.copysign(1.0, slope) == math.copysign(1.0, r.ee_trend), g


class TestQosSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            QosSpec(theta=0.0)
        with pytest.raises(DomainError):
            QosSpec(theta=-1e-4)

    @pytest.mark.parametrize("value", NONFINITE)
    def test_nonfinite_rejected(self, value):
        with pytest.raises(DomainError, match="theta must be finite"):
            QosSpec(theta=value)

    @pytest.mark.parametrize("value", ["1e-4", True, None, 1e-4j])
    def test_wrong_type_rejected(self, value):
        with pytest.raises(DomainError, match="theta must be a real number"):
            QosSpec(theta=value)

    def test_numpy_scalars_and_ints_accepted(self):
        assert QosSpec(theta=np.float32(0.5)).theta == 0.5
        assert QosSpec(theta=np.int64(2)).theta == QosSpec(theta=2).theta == 2


class TestFloatRange:
    """Points whose floats leave the range raise DomainError, each magnitude
    confirmed by mpmath."""

    def test_closed_form_tail_underflows(self, params):
        # theta = 1e-4, gamma0 = 400: Gamma(1.974, 800) is about 2.5e-345.
        mpmath = pytest.importorskip("mpmath")
        v = params.fading_m + params.exponent_rate * 1e-4
        z = params.fading_m * 400.0
        assert -345 < mpmath.log10(mpmath.gammainc(v, z)) < -344
        assert upper_incomplete_gamma(v, z) == 0.0
        with pytest.raises(DomainError, match="underflows the float range"):
            analyze(params, QosSpec(theta=1e-4), 400.0)

    @pytest.mark.parametrize("gamma0", [0.01, 0.0018])
    def test_closed_form_tail_overflows(self, params, gamma0):
        # theta = 1: Gamma(-257.685, 0.02) is about 10^435 and at the gating
        # resolution about 10^627; theta-threshold --theta-hi 1 meets the
        # second.
        mpmath = pytest.importorskip("mpmath")
        v = params.fading_m + params.exponent_rate
        z = params.fading_m * gamma0
        assert mpmath.log10(mpmath.gammainc(v, z)) > 435  # float max is 1.8e308
        with pytest.raises(DomainError, match="passes the float range"):
            upper_incomplete_gamma(v, z)
        with pytest.raises(DomainError, match="passes the float range"):
            ee_trend(params, QosSpec(theta=1.0), gamma0)

    @pytest.mark.parametrize("theta, gamma0, point, cause", [
        (1e-4, 1e308, "theta = 0.0001, gamma0 = 1e+308", "need a finite order"),
        (1e-4, 400.0, "theta = 0.0001, gamma0 = 400", "underflows the float range"),
        (1.0, 0.01, "theta = 1, gamma0 = 0.01", "passes the float range"),
    ])
    def test_closed_form_refusal_names_the_point(self, params, theta, gamma0, point, cause):
        # Gamma's own refusal names only its arguments m + a and m gamma0.
        with pytest.raises(DomainError, match=cause) as raised:
            analyze(params, QosSpec(theta=theta), gamma0)
        assert str(raised.value).startswith(f"{METHOD_CLOSED} at {point}: ")


def mpmath_log_mgf(mpmath, link, theta, gamma0):
    """log F at 20 digits by quadrature in w = m (g - gamma0). Next to the
    threshold the kernel falls by e within m (1 + snr gamma0) / (|a| snr) of
    it in w, which can be 1e-4, so the cuts start at 1/64 of the least of
    that scale, m gamma0 and the density's unit scale, and grow by 8 to 64.
    Each integrand is divided by its largest value on the cuts first: quad's
    error estimate has an absolute floor near 10^-20, which an integral of
    e^-100 would pass unresolved. Where 1 - F > 1/2, F is the regularized
    lower gamma plus the kernel's integral."""
    with mpmath.workdps(20):
        m = mpmath.mpf(link.fading_m)
        snr = mpmath.mpf(link.mean_snr)
        a = mpmath.mpf(link.exponent_rate) * theta
        g0 = mpmath.mpf(gamma0)
        log_norm = m * mpmath.log(m) - mpmath.loggamma(m)

        def density(w):
            g = g0 + w / m
            return mpmath.exp(log_norm + (m - 1) * mpmath.log(g) - m * g) / m

        def log_kernel(w):
            return a * mpmath.log1p(snr * (g0 + w / m))

        scale = min(m * (1 + snr * g0) / (-a * snr), m * g0 if gamma0 else 1, 1) / 64
        cuts = [0]
        while scale < 64:
            cuts.append(scale)
            scale *= 8
        cuts += [64, mpmath.inf]

        def integral(f):
            peak = max(f(w) for w in cuts[1:-1])
            return peak * mpmath.quad(lambda w: f(w) / peak, cuts)

        deficit = integral(lambda w: -mpmath.expm1(log_kernel(w)) * density(w))
        if deficit <= 0.5:
            return float(mpmath.log1p(-deficit))
        transmit = integral(lambda w: mpmath.exp(log_kernel(w)) * density(w))
        idle = mpmath.gammainc(m, 0, m * g0, regularized=True)
        return float(mpmath.log(idle + transmit))


class TestExactSeries:
    """The exact route's binomial series, and the quadrature it falls back
    to, against mpmath; both are held to 1e-12 relative on log F."""

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 3.0, 5.5, 20.0])
    def test_matches_mpmath(self, params, m):
        mpmath = pytest.importorskip("mpmath")
        link = dataclasses.replace(params, fading_m=m)
        cutoff = analysis._SERIES_MIN_SNR_GAMMA / link.mean_snr
        answered = 0
        # theta = 1e-8 cancels too far for the series; 0.05 puts the
        # kernel's scale within 1e-4 of the threshold.
        points = [(1e-8, 0.5), (1e-4, 1.25 * cutoff), (1e-4, 0.5),
                  (0.05, 0.75 * cutoff), (0.05, 1.25 * cutoff), (0.05, 0.002)]
        for theta, g0 in points:
            expected = mpmath_log_mgf(mpmath, link, theta, g0)
            bound = 1e-12 * abs(expected)
            got = log_service_mgf(link, QosSpec(theta=theta), g0, METHOD_EXACT)
            assert abs(got - expected) <= bound, (theta, g0)
            p_tr = tail_probability(link, g0)
            series = analysis._log_mgf_series(link, link.exponent_rate * theta, g0, p_tr)
            if series is None:
                continue
            assert g0 > cutoff
            assert series == got
            quadrature = analysis._log_mgf_quadrature(link, theta, g0)
            assert abs(quadrature - expected) <= bound, (theta, g0)
            answered += 1
        assert answered >= 2

    @pytest.mark.parametrize("order", [-1 + 1e-12, -1 + 1e-4, -2 - 1e-6])
    def test_orders_next_to_a_pole(self, params, order):
        # m + a next to a pole of Gamma at z = 0.1: upper_incomplete_gamma
        # recurs down there, outside the calibrated error model's box, so
        # the series leaves these points to quadrature.
        mpmath = pytest.importorskip("mpmath")
        link = dataclasses.replace(params, fading_m=1.0)
        theta = (order - 1.0) / link.exponent_rate
        p_tr = tail_probability(link, 0.1)
        assert analysis._log_mgf_series(link, link.exponent_rate * theta, 0.1, p_tr) is None
        expected = mpmath_log_mgf(mpmath, link, theta, 0.1)
        got = log_service_mgf(link, QosSpec(theta=theta), 0.1, METHOD_EXACT)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize(
        "m, theta, g0", [(2.0, 0.5, 1.0), (1.0, 0.2, 2.0), (45.5, 1e-3, 0.5), (45.5, 1e-3, 1.0)]
    )
    def test_outside_the_calibrated_box_falls_back(self, params, m, theta, g0):
        # The first Gamma's order m + a is about -128 and -51 at the large
        # thetas, and p_tr is Gamma(45.5, z) / Gamma(45.5) at the large
        # non-integer m: both beyond the orders -12.9 to 40 that the error
        # model was calibrated on, so quadrature answers.
        mpmath = pytest.importorskip("mpmath")
        link = dataclasses.replace(params, fading_m=m)
        p_tr = tail_probability(link, g0)
        assert analysis._log_mgf_series(link, link.exponent_rate * theta, g0, p_tr) is None
        expected = mpmath_log_mgf(mpmath, link, theta, g0)
        got = log_service_mgf(link, QosSpec(theta=theta), g0, METHOD_EXACT)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_low_snr_link_falls_back(self, params, m):
        # At a mean SNR of about 2e-4, snr gamma0 stays far below the
        # series' cutoff, so quadrature answers everywhere.
        mpmath = pytest.importorskip("mpmath")
        link = dataclasses.replace(params, tx_power=1e-6, fading_m=m)
        for theta in (1e-6, 1e-3):
            for g0 in (0.5, 2.0):
                p_tr = tail_probability(link, g0)
                assert analysis._log_mgf_series(link, link.exponent_rate * theta, g0, p_tr) is None
                expected = mpmath_log_mgf(mpmath, link, theta, g0)
                got = log_service_mgf(link, QosSpec(theta=theta), g0, METHOD_EXACT)
                assert abs(got - expected) <= 1e-12 * abs(expected), (theta, g0)

    def test_refusal_only_where_the_series_refuses(self, params, monkeypatch):
        # _series_refused turns the series down before its first Gamma by a
        # bound that needs none. Run the whole series past it on seeded
        # points, low-SNR links included: wherever the bound refuses, the
        # series must end in None too.
        refused = analysis._series_refused
        verdicts = []

        def record(*args):
            verdicts.append(refused(*args))
            return False

        monkeypatch.setattr(analysis, "_series_refused", record)
        rng = random.Random(22)
        declined = turned_down = 0
        for _ in range(6000):
            m = rng.choice((rng.uniform(0.5, 20.0), float(rng.randint(1, 20))))
            link = dataclasses.replace(
                params, fading_m=m, tx_power=channel.dbm_to_watt(rng.uniform(-30.0, 46.0))
            )
            a = link.exponent_rate * 10 ** rng.uniform(-8.0, 0.0)
            # Half the thresholds from 1 to 1000 times the series' cutoff.
            cutoff = analysis._SERIES_MIN_SNR_GAMMA / link.mean_snr
            g0 = rng.choice((10 ** rng.uniform(-6.0, 2.5), cutoff * 10 ** rng.uniform(0.0, 3.0)))
            verdicts.clear()
            series = analysis._log_mgf_series(link, a, g0, tail_probability(link, g0))
            if verdicts and series is None:
                declined += 1
            if verdicts and verdicts[0]:
                turned_down += 1
                assert series is None, (m, link.tx_power, a, g0)
        # The bound spares most of the declined points their Gamma calls.
        assert declined >= 500 and turned_down >= 0.8 * declined, (declined, turned_down)

    @settings(max_examples=120, deadline=None)
    @given(
        m=st.floats(min_value=0.5, max_value=20.0),
        tx_dbm=st.floats(min_value=0.0, max_value=46.0),
        distance_km=st.floats(min_value=0.1, max_value=3.2),
        log10_circuit=st.floats(min_value=-4.0, max_value=0.0),
        log10_theta=st.floats(min_value=-8.0, max_value=0.0),
        gamma0=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=316.0)),
    )
    def test_analyze_is_bounded_or_raises(self, params, m, tx_dbm, distance_km,
                                          log10_circuit, log10_theta, gamma0):
        # Every exact point either raises an eelink error or gives a finite
        # effective capacity in [0, mean service rate], the theta -> 0 limit
        # it cannot pass, and a nonnegative EE.
        link = dataclasses.replace(params, fading_m=m, tx_power=channel.dbm_to_watt(tx_dbm),
                                   distance_km=distance_km, path_loss=None,
                                   circuit_power=10**log10_circuit)
        try:
            r = analyze(link, QosSpec(theta=10**log10_theta), gamma0, method=METHOD_EXACT)
            ceiling = mean_service_rate(link, gamma0)
        except ERRORS:
            return
        assert math.isfinite(r.effective_capacity) and r.ee >= 0.0
        assert 0.0 <= r.effective_capacity <= ceiling * (1.0 + 1e-9) + 1e-300


class TestExactIdleMass:
    """Where F is mostly the idle mass P(gain < gamma0) and that mass is far
    below 1e-16, 1 - p_tr rounds it away; both exact routes take it from the
    regularized lower gamma instead."""

    @pytest.fixture(params=["series", "quadrature"])
    def route(self, request, monkeypatch):
        if request.param == "quadrature":
            monkeypatch.setattr(analysis, "_log_mgf_series", lambda *args: None)
        return request.param

    def test_deep_idle_point_is_finite(self, params, route):
        # m = 20, theta = 0.627, gamma0 = 0.042: the idle mass is 5.65e-21,
        # 1 - p_tr cancels to 0, and the transmit side is about 7e-390, so
        # F is the idle mass.
        mpmath = pytest.importorskip("mpmath")
        link = dataclasses.replace(params, fading_m=20.0)
        idle = mpmath.gammainc(20, 0, 20 * 0.042, regularized=True)
        assert float(idle) == pytest.approx(5.654e-21, rel=1e-3)
        assert 1.0 - tail_probability(link, 0.042) == 0.0
        r = analyze(link, QosSpec(theta=0.627), 0.042, method=METHOD_EXACT)
        assert r.log_mgf == pytest.approx(float(mpmath.log(idle)), rel=1e-12)
        assert r.p_idle == 0.0 and r.p_tr + r.p_idle == 1.0

    @pytest.mark.parametrize("m", [20.0, 150.0, 150.5])
    def test_lower_gamma_form_beats_the_complement(self, params, m):
        # Thresholds where p_tr runs from 1/2 to 0.999. p_tr's own error
        # grows with m, so at m = 150 1 - p_tr was 1.7e-12 off even where p_tr
        # was near 1/2; the lower gamma form stays within 2.4e-13.
        mpmath = pytest.importorskip("mpmath")
        link = dataclasses.replace(params, fading_m=m)
        for i in range(40):
            gamma0 = 1.0 - 3.2 / math.sqrt(m) * (1.0 - i / 39)
            p_tr = tail_probability(link, gamma0)
            if p_tr <= 0.5:
                continue
            with mpmath.workdps(30):
                expected = mpmath.gammainc(m, 0, m * mpmath.mpf(gamma0), regularized=True)
                got = analysis._idle_mass(link, gamma0)
                assert abs(got - expected) <= 5e-13 * expected, gamma0

    @pytest.mark.parametrize("gamma0", [0.068, 0.069, 0.07])
    def test_matches_mpmath(self, params, route, gamma0):
        # m = 20, theta = 0.02: the idle mass is 5.3e-17 at 0.068 and 9.1e-17
        # at 0.07, where 1 - p_tr rounded to 0 or to 1.1e-16 and the
        # capacity jumped by 14% between neighbouring thresholds.
        mpmath = pytest.importorskip("mpmath")
        link = dataclasses.replace(params, fading_m=20.0)
        expected = mpmath_log_mgf(mpmath, link, 0.02, gamma0)
        got = log_service_mgf(link, QosSpec(theta=0.02), gamma0, METHOD_EXACT)
        assert abs(got - expected) <= 1e-12 * abs(expected)
        if gamma0 == 0.068:
            capacity = effective_capacity(link, QosSpec(theta=0.02), gamma0, METHOD_EXACT)
            assert capacity == pytest.approx(1_873_654, abs=1)
