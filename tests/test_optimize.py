import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eelink import (
    METHOD_EXACT,
    BracketError,
    DomainError,
    InfeasibleRateError,
    PreconditionError,
    QosSpec,
    Regime,
    SearchSettings,
    analyze,
    dbm_to_watt,
    default_params,
    ee_trend,
    effective_capacity,
    energy_efficiency,
    find_optimal_threshold,
    find_theta_threshold,
    invert_effective_capacity,
    service_mgf,
    sweep,
)

# (theta, optimal threshold, max EE, baseline EE) published for the
# reference link; thresholds match to 1e-3, EE values to 0.5%.
PUBLISHED_ROWS = [
    (1e-4, 0.5323, 1.0623e5, 1.0478e5),
    (1e-5, 1.6293, 1.1441e5, 1.0488e5),
    (1e-6, 1.6606, 1.1544e5, 1.0489e5),
    (1e-7, 1.6636, 1.1554e5, 1.0489e5),
]


def link(m, distance_km, tx_dbm, circuit_power, idle_fraction):
    """The reference link with fading m, moved, re-powered and with its own
    power budget."""
    tx_power = dbm_to_watt(tx_dbm)
    return dataclasses.replace(
        default_params(),
        fading_m=m,
        tx_power=tx_power,
        circuit_power=circuit_power,
        idle_power=idle_fraction * tx_power,
        distance_km=distance_km,
        path_loss=None,
    )


class TestFindOptimalThreshold:
    @pytest.mark.parametrize("theta,g_ref,ee_ref,ee0_ref", PUBLISHED_ROWS)
    def test_published_rows(self, params, theta, g_ref, ee_ref, ee0_ref):
        r = find_optimal_threshold(params, QosSpec(theta=theta), SearchSettings(epsilon=1e-8))
        assert r.regime is Regime.GATED
        assert abs(r.gamma0_opt - g_ref) <= 1e-3
        assert r.ee_opt == pytest.approx(ee_ref, rel=5e-3)
        assert r.ee_baseline == pytest.approx(ee0_ref, rel=5e-3)

    def test_strict_qos_is_ungated(self, params):
        r = find_optimal_threshold(params, QosSpec(theta=1e-3))
        assert r.regime is Regime.UNGATED
        assert r.gamma0_opt == 0.0
        assert r.ee_opt == r.ee_baseline

    def test_gated_beats_baseline(self, params):
        for theta, *_ in PUBLISHED_ROWS:
            r = find_optimal_threshold(params, QosSpec(theta=theta))
            assert r.ee_opt >= r.ee_baseline

    def test_bisection_certificate(self, params):
        eps = 1e-8
        for theta in (1e-4, 1e-6):
            qos = QosSpec(theta=theta)
            r = find_optimal_threshold(params, qos, SearchSettings(epsilon=eps))
            assert ee_trend(params, qos, r.gamma0_opt - 10 * eps) > 0.0
            assert ee_trend(params, qos, r.gamma0_opt + 10 * eps) < 0.0

    def test_threshold_grows_as_qos_relaxes(self, params):
        roots = [
            find_optimal_threshold(params, QosSpec(theta=t)).gamma0_opt
            for t, *_ in PUBLISHED_ROWS
        ]
        assert all(a < b for a, b in zip(roots, roots[1:]))

    def test_unimodal_when_gated(self, params, qos_1e4):
        r = find_optimal_threshold(params, qos_1e4)
        grid = np.linspace(0.0, r.bracket[1], 500)
        ee = np.array([energy_efficiency(params, qos_1e4, float(g)) for g in grid])
        peaks = 0
        for i in range(1, len(ee) - 1):
            left = (ee[i] - ee[i - 1]) / ee[i]
            right = (ee[i] - ee[i + 1]) / ee[i]
            if left > 1e-9 and right > 1e-9:
                peaks += 1
        assert peaks == 1

    def test_monotone_decreasing_when_ungated(self, params):
        qos = QosSpec(theta=1e-3)
        grid = np.linspace(0.0, 3.0, 500)
        ee = [energy_efficiency(params, qos, float(g)) for g in grid]
        assert all(a > b for a, b in zip(ee, ee[1:]))

    def test_optimum_dominates_sweep(self, params):
        for theta, *_ in PUBLISHED_ROWS:
            qos = QosSpec(theta=theta)
            r = find_optimal_threshold(params, qos)
            rows = sweep(params, [theta], (0.0, 3.0), "EE", 301)
            assert r.ee_opt >= max(value for _, _, value in rows)

    def test_bracket_failure(self, params):
        with pytest.raises(BracketError):
            find_optimal_threshold(
                params, QosSpec(theta=1e-5), SearchSettings(gamma0_cap=1.0)
            )

    def test_unreachable_epsilon_stops_at_float_spacing(self, params, qos_1e4, monkeypatch):
        # Below the float spacing the midpoint rounds onto an end, which ends
        # the search after about 53 halvings rather than looping on.
        calls = []

        def counted(*args):
            calls.append(args)
            return ee_trend(*args)

        monkeypatch.setattr("eelink.optimize.ee_trend", counted)
        with pytest.raises(BracketError, match="adjacent floats"):
            find_optimal_threshold(params, qos_1e4, SearchSettings(epsilon=1e-20))
        assert len(calls) <= 60

    def test_any_fading_m(self, params, qos_1e4):
        rician_like = dataclasses.replace(params, fading_m=3.0)
        r = find_optimal_threshold(rician_like, qos_1e4)
        assert r.regime is Regime.GATED
        assert r.gamma0_opt == pytest.approx(0.4067, abs=1e-3)
        assert ee_trend(rician_like, qos_1e4, r.gamma0_opt - 1e-6) > 0.0
        assert ee_trend(rician_like, qos_1e4, r.gamma0_opt + 1e-6) < 0.0
        assert r.ee_opt > r.ee_baseline

    def test_iterations_are_reported(self, params, qos_1e4):
        r = find_optimal_threshold(params, qos_1e4)
        assert r.iterations > 10
        assert r.bracket[0] <= r.gamma0_opt <= r.bracket[1]


class TestFindThetaThreshold:
    def test_published_boundary(self, params):
        t = find_theta_threshold(params, 1e-5, 1e-2)
        assert t == pytest.approx(7.219e-4, rel=1e-2)

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.5]),
        distance_km=st.floats(min_value=0.3, max_value=2.0),
        tx_dbm=st.floats(min_value=30.0, max_value=46.0),
        log10_circuit=st.floats(min_value=-4.0, max_value=0.0),
        idle_fraction=st.floats(min_value=0.0, max_value=0.01),
    )
    @example(m=2.0, distance_km=1.0, tx_dbm=43.0, log10_circuit=-1.0, idle_fraction=0.0)
    def test_boundary_consistency(self, m, distance_km, tx_dbm, log10_circuit, idle_fraction):
        params = link(m, distance_km, tx_dbm, 10.0**log10_circuit, idle_fraction)
        try:
            t = find_theta_threshold(params, 1e-5, 1e-2)
        except PreconditionError:
            assume(False)  # boundary outside the bracket (low-SNR links)
        # The zero-threshold baseline needs the closed form's gamma0 = 0 domain.
        assume(1.02 * t < -m / params.exponent_rate)
        below = find_optimal_threshold(params, QosSpec(theta=0.98 * t))
        above = find_optimal_threshold(params, QosSpec(theta=1.02 * t))
        assert below.regime is Regime.GATED
        assert above.regime is Regime.UNGATED

    def test_boundary_matches_optimizer_regime(self):
        # Near the boundary the trend turns slightly positive again around
        # gamma0 = 3.5, far outside the optimizer's bracket [0, 1]. The
        # boundary must follow the trend at the resolution, as the optimizer
        # does; counting that far hump put it at 6.70e-4, already ungated.
        params = link(2.0, 1.0, 46.0, 5e-4, 0.0)
        t = find_theta_threshold(params, 1e-5, 1e-2)
        assert t == pytest.approx(5.928e-4, rel=1e-3)
        assert find_optimal_threshold(params, QosSpec(theta=0.98 * t)).regime is Regime.GATED
        assert find_optimal_threshold(params, QosSpec(theta=1.02 * t)).regime is Regime.UNGATED

    def test_predicate_must_flip(self, params):
        with pytest.raises(PreconditionError):
            find_theta_threshold(params, 5e-3, 1e-2)
        with pytest.raises(PreconditionError):
            find_theta_threshold(params, 1e-6, 1e-5)

    def test_bad_bracket(self, params):
        with pytest.raises(DomainError):
            find_theta_threshold(params, 1e-2, 1e-5)


class TestInvertEffectiveCapacity:
    def test_published_bounds(self, params, qos_1e4):
        assert invert_effective_capacity(params, qos_1e4, 1519.7e3) == pytest.approx(
            0.53, abs=0.01
        )
        assert invert_effective_capacity(params, qos_1e4, 300e3) == pytest.approx(
            1.73, abs=0.01
        )

    def test_nan_rate_rejected(self, params, qos_1e4):
        with pytest.raises(DomainError, match="mu must be positive"):
            invert_effective_capacity(params, qos_1e4, math.nan)

    def test_residual(self, params, qos_1e4):
        for mu in (1519.7e3, 300e3, 1e6):
            g = invert_effective_capacity(params, qos_1e4, mu)
            assert abs(effective_capacity(params, qos_1e4, g) - mu) / mu <= 1e-6

    def test_feasibility_boundary(self, params, qos_1e4):
        ceiling = effective_capacity(params, qos_1e4, 0.0)
        # The closed-form capacity dips by parts in 1e7 just above a zero
        # threshold, so the largest feasible threshold at the ceiling rate is
        # the far edge of that dip rather than 0 exactly.
        assert invert_effective_capacity(params, qos_1e4, ceiling) == pytest.approx(
            0.0, abs=1e-3
        )
        with pytest.raises(InfeasibleRateError):
            invert_effective_capacity(params, qos_1e4, 1.0001 * ceiling)

    def test_bad_rate(self, params, qos_1e4):
        with pytest.raises(DomainError):
            invert_effective_capacity(params, qos_1e4, -5.0)

    def test_unreachable_epsilon_hits_iteration_guard(self, params, qos_1e4):
        # Below the float spacing of the bracket the width stops shrinking.
        with pytest.raises(BracketError, match="adjacent floats"):
            invert_effective_capacity(params, qos_1e4, 1e6, SearchSettings(epsilon=1e-20))


class TestSweep:
    def test_ee_argmax_matches_optimum(self, params):
        rows = sweep(params, [1e-4, 1e-6], (0.0, 3.0), "EE", 301)
        by_theta = {}
        for theta, g, value in rows:
            best = by_theta.get(theta)
            if best is None or value > best[1]:
                by_theta[theta] = (g, value)
        assert by_theta[1e-4][0] == pytest.approx(0.5323, abs=0.011)
        assert by_theta[1e-6][0] == pytest.approx(1.6606, abs=0.011)

    def test_trend_sign_structure(self, params):
        rows = sweep(params, [1e-4, 1e-3], (0.01, 3.0), "G", 300)
        loose = [v for t, _, v in rows if t == 1e-4]
        strict = [v for t, _, v in rows if t == 1e-3]
        assert any(v > 0 for v in loose)
        assert all(v < 0 for v in strict)

    def test_grid_contract(self, params):
        rows = sweep(params, [1e-4, 1e-5], (0.0, 1.0), "alpha", 2)
        assert len(rows) == 4
        assert [(t, g) for t, g, _ in rows] == [
            (1e-4, 0.0),
            (1e-4, 1.0),
            (1e-5, 0.0),
            (1e-5, 1.0),
        ]

    @pytest.mark.parametrize("lo, hi, steps", [(0, 3, 40), (0, 3, 30), (0.1, 2.7, 17), (0, 1, 2)])
    def test_grid_is_linspace(self, params, lo, hi, steps):
        rows = sweep(params, [1e-4], (lo, hi), "F", steps)
        assert [g for _, g, _ in rows] == np.linspace(lo, hi, steps).tolist()

    def test_mgf_quantity(self, params):
        rows = sweep(params, [1e-4], (0.0, 2.0), "F", 21)
        values = [v for _, _, v in rows]
        assert all(0.0 < v < 1.0 for v in values[1:])
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_exact_mgf_and_trend(self, params):
        # The exact service moment at theta = 1e-4, gamma0 = 0 is 0.8104949;
        # the closed form gives 0.8105049.
        thetas = [1e-4, 1e-6]
        mgf = sweep(params, thetas, (0.0, 2.0), "F", 5, method=METHOD_EXACT)
        trend = sweep(params, thetas, (0.0, 2.0), "G", 5, method=METHOD_EXACT)
        assert mgf[0][2] == pytest.approx(0.8104949, abs=1e-7)
        for (theta, g, f), (_, _, G) in zip(mgf, trend):
            qos = QosSpec(theta=theta)
            assert f == service_mgf(params, qos, g, METHOD_EXACT)
            assert G == analyze(params, qos, g, METHOD_EXACT).ee_trend

    def test_exact_trend_at_zero_total_power(self, params):
        # No circuit or idle power: at gamma0 = 400 no slot transmits and EE
        # is undefined, but the trend is 0.
        link = dataclasses.replace(params, circuit_power=0.0)
        rows = sweep(link, [1e-4], (0.0, 400.0), "G", 3, method=METHOD_EXACT)
        assert [g for _, g, _ in rows] == [0.0, 200.0, 400.0]
        assert rows[0][2] == pytest.approx(3.398, rel=1e-3)
        assert 0.0 < rows[1][2] < 1e-170
        assert rows[2][2] == 0.0

    def test_validation(self, params):
        with pytest.raises(DomainError):
            sweep(params, [], (0.0, 1.0), "EE", 10)
        with pytest.raises(DomainError):
            sweep(params, [1e-4], (0.0, 1.0), "EE", 1)
        with pytest.raises(DomainError):
            sweep(params, [1e-4], (1.0, 0.0), "EE", 10)
        with pytest.raises(DomainError):
            sweep(params, [1e-4], (0.0, 1.0), "entropy", 10)


class TestSearchSettings:
    def test_validation(self):
        with pytest.raises(DomainError):
            SearchSettings(epsilon=0.0)
        for cap in (0.0, -1.0):
            with pytest.raises(DomainError, match="gamma0_cap must be positive"):
                SearchSettings(gamma0_cap=cap)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["epsilon", "gamma0_cap"])
    def test_nonfinite_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            SearchSettings(**{field: value})
