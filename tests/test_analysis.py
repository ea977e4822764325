import dataclasses
import math

import numpy as np
import pytest

from eelink import (
    METHOD_CLOSED,
    METHOD_EXACT,
    DomainError,
    QosSpec,
    analyze,
    cdf,
    delay_outage_estimate,
    ee_trend,
    effective_capacity,
    energy_efficiency,
    log_service_mgf,
    mean_service_rate,
    service_mgf,
    tail_probability,
    upper_incomplete_gamma,
)
from eelink import analysis, channel
from eelink.analysis import _logaddexp

# Values frozen from 40-digit evaluation of the closed forms.
ALPHA_REF = 1519677.5422946024          # theta 1e-4, gamma0 0.5323
EE_REF = 106223.13552537811
EE0_REF = 104773.27076544819
MGF_AT_1 = 0.91687443628970887          # theta 1e-4, gamma0 1.0, by quadrature
TREND_AT_025 = 0.14942636298342384
TREND_AT_1 = -0.014368757787333229

NONFINITE = (math.nan, math.inf, -math.inf)


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

    def test_closed_form_makes_two_incomplete_gamma_calls(self, params, qos_1e4, monkeypatch):
        # One for the tail probability, shared by the idle mass and the
        # power, and one for the service moment.
        calls = []

        def counted(v, z):
            calls.append((v, z))
            return upper_incomplete_gamma(v, z)

        monkeypatch.setattr(analysis, "upper_incomplete_gamma", counted)
        monkeypatch.setattr(channel, "upper_incomplete_gamma", counted)
        assert energy_efficiency(params, qos_1e4, 0.5323) == pytest.approx(EE_REF, rel=1e-10)
        assert len(calls) == 2

    @pytest.mark.parametrize("method", [METHOD_CLOSED, METHOD_EXACT])
    def test_zero_total_power_is_a_domain_error(self, params, method):
        # No circuit or idle power, and a threshold so high that the
        # transmit probability underflows to 0.
        link = dataclasses.replace(params, circuit_power=0.0)
        assert tail_probability(link, 400.0) == 0.0
        with pytest.raises(DomainError, match="total power is 0 W"):
            analyze(link, QosSpec(theta=1e-4), 400.0, method)


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
                p_idle = cdf(params, g)
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
        for theta in (1e-6, 1e-4):
            qos = QosSpec(theta=theta)
            for g in (0.0, 0.5, 4.0):
                expected = analyze(params, qos, g, method).ee_trend
                assert ee_trend(params, qos, g, method) == expected, (theta, g)

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


class TestDelayOutage:
    def test_no_decay(self):
        qos = QosSpec(theta=1e-4, delay_bound=1.0)
        assert delay_outage_estimate(qos, 1.0, 0.0) == 1.0

    def test_empty_buffer(self):
        qos = QosSpec(theta=1e-4, delay_bound=1.0)
        assert delay_outage_estimate(qos, 0.0, 500.0) == 0.0

    def test_direct_evaluation(self):
        qos = QosSpec(theta=1e-4, delay_bound=0.01)
        assert delay_outage_estimate(qos, 0.5, 230.0) == pytest.approx(
            0.5 * math.exp(-2.3), rel=1e-12
        )

    def test_missing_bound(self):
        with pytest.raises(DomainError):
            delay_outage_estimate(QosSpec(theta=1e-4), 0.5, 100.0)

    def test_bad_probability(self):
        qos = QosSpec(theta=1e-4, delay_bound=0.01)
        with pytest.raises(DomainError):
            delay_outage_estimate(qos, 1.5, 100.0)


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
        with pytest.raises(DomainError):
            QosSpec(theta=1e-4, delay_bound=0.0)

    @pytest.mark.parametrize("value", NONFINITE)
    def test_nonfinite_rejected(self, value):
        with pytest.raises(DomainError, match="theta must be finite"):
            QosSpec(theta=value)
        with pytest.raises(DomainError, match="delay_bound must be finite"):
            QosSpec(theta=1e-4, delay_bound=value)
