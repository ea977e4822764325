import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eelink import (
    GATING_RESOLUTION,
    METHOD_CLOSED,
    METHOD_EXACT,
    BracketError,
    DomainError,
    InfeasibleRateError,
    PreconditionError,
    QosSpec,
    Regime,
    analyze,
    dbm_to_watt,
    default_params,
    delay_outage_estimate,
    ee_trend,
    effective_capacity,
    energy_efficiency,
    find_optimal_threshold,
    find_theta_threshold,
    invert_effective_capacity,
    log_service_mgf,
    mean_service_rate,
    pdf,
    service_mgf,
    sweep,
    tail_probability,
)
from eelink import analysis, errors, optimize
from eelink.analysis import _with_slope
from eelink.optimize import _EXTRA_EVALS, _grow_bracket, _search

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
        r = find_optimal_threshold(params, QosSpec(theta=theta))
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
            r = find_optimal_threshold(params, qos)
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
        # The exact capacity at theta = 1e-4 is still above 1e-60 bits/s at
        # gamma0 = 64, where the bracket stops growing.
        with pytest.raises(BracketError):
            invert_effective_capacity(params, QosSpec(theta=1e-4), 1e-60, method=METHOD_EXACT)

    def test_any_fading_m(self, params, qos_1e4):
        rician_like = dataclasses.replace(params, fading_m=3.0)
        r = find_optimal_threshold(rician_like, qos_1e4)
        assert r.regime is Regime.GATED
        assert r.gamma0_opt == pytest.approx(0.4067, abs=1e-3)
        assert ee_trend(rician_like, qos_1e4, r.gamma0_opt - 1e-6) > 0.0
        assert ee_trend(rician_like, qos_1e4, r.gamma0_opt + 1e-6) < 0.0
        assert r.ee_opt > r.ee_baseline

    def test_iterations_are_reported(self, params, qos_1e4, monkeypatch):
        # The gating check and the bracket's growth evaluate the trend alone,
        # the search the trend and its slope.
        evaluated = []

        def counted(evaluate):
            def wrapper(*args):
                evaluated.append(args[2])
                return evaluate(*args)
            return wrapper

        monkeypatch.setattr(optimize, "_with_slope", counted(_with_slope))
        monkeypatch.setattr(optimize, "ee_trend", counted(ee_trend))
        r = find_optimal_threshold(params, qos_1e4)
        # Bisection of [0, 1] takes 27 halvings: 28 trend evaluations with the
        # bracket's growth.
        assert r.iterations == len(evaluated) < 28
        assert r.bracket[0] <= r.gamma0_opt <= r.bracket[1]

    def test_sign_checks_skip_the_slope(self, params, qos_1e4, monkeypatch):
        # Only the search's steps need the slope, and with it the density.
        densities, searched = [], []

        def counted_pdf(*args):
            densities.append(args[1])
            return channel_pdf(*args)

        def counted_trend(*args):
            searched.append(args[2])
            return _with_slope(*args)

        channel_pdf = analysis.pdf
        monkeypatch.setattr(analysis, "pdf", counted_pdf)
        monkeypatch.setattr(optimize, "_with_slope", counted_trend)
        r = find_optimal_threshold(params, qos_1e4)
        assert densities == searched
        assert len(searched) < r.iterations

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.5, 20.0]),
        distance_km=st.floats(min_value=0.3, max_value=2.0),
        tx_dbm=st.floats(min_value=30.0, max_value=46.0),
        log10_circuit=st.floats(min_value=-4.0, max_value=0.0),
        idle_fraction=st.floats(min_value=0.0, max_value=0.01),
        log10_theta=st.floats(min_value=-7.0, max_value=math.log10(5e-3)),
    )
    @example(m=2.0, distance_km=1.0, tx_dbm=43.0, log10_circuit=-1.0, idle_fraction=0.0,
             log10_theta=math.log10(7.2e-4))
    def test_ungated_exactly_when_trend_at_resolution_is_not_positive(
        self, m, distance_km, tx_dbm, log10_circuit, idle_fraction, log10_theta
    ):
        params = link(m, distance_km, tx_dbm, 10.0**log10_circuit, idle_fraction)
        qos = QosSpec(theta=10.0**log10_theta)
        try:
            r = find_optimal_threshold(params, qos)
        except (DomainError, BracketError):
            assume(False)  # baseline outside the closed form's domain, or no bracket
        ungated = ee_trend(params, qos, GATING_RESOLUTION) <= 0.0
        assert (r.regime is Regime.UNGATED) == ungated


class TestSearch:
    @settings(max_examples=100, deadline=None)
    @given(
        m=st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.5, 20.0]),
        distance_km=st.floats(min_value=0.3, max_value=2.0),
        tx_dbm=st.floats(min_value=30.0, max_value=46.0),
        log10_circuit=st.floats(min_value=-4.0, max_value=0.0),
        idle_fraction=st.floats(min_value=0.0, max_value=0.01),
        log10_theta=st.floats(min_value=-7.0, max_value=math.log10(5e-3)),
        rate_fraction=st.floats(min_value=0.01, max_value=0.99),
        method=st.sampled_from([METHOD_CLOSED, METHOD_EXACT]),
    )
    def test_certificate_and_cost(
        self, m, distance_km, tx_dbm, log10_circuit, idle_fraction, log10_theta,
        rate_fraction, method,
    ):
        # Both threshold searches: the final bracket is at most 1e-8 wide
        # with the sign certificate at both ends, and takes at most four
        # evaluations more than bisection of the same bracket.
        params = link(m, distance_km, tx_dbm, 10.0**log10_circuit, idle_fraction)
        theta = 10.0**log10_theta

        def trend(g):
            return _with_slope(params, theta, g, "G", method)

        try:
            mu = rate_fraction * _with_slope(params, theta, 0.0, "alpha", method)[0]
        except DomainError:
            assume(False)

        def excess(g):
            capacity, slope = _with_slope(params, theta, g, "alpha", method)
            return capacity - mu, slope

        searched = 0
        for f, lo in ((trend, GATING_RESOLUTION), (excess, 0.0)):
            try:
                if not f(lo)[0] > 0.0:
                    continue
                hi, _ = _grow_bracket(lambda g: f(g)[0] > 0.0, "test")
                lower, upper, evals = _search(f, lo, hi, 1e-8)
            except (DomainError, BracketError):
                continue
            *_, halvings = _search(lambda g: (f(g)[0], None), lo, hi, 1e-8)
            assert upper - lower <= 1e-8
            assert f(lower)[0] > 0.0 >= f(upper)[0]
            assert evals <= halvings + 4
            searched += 1
        assume(searched)

    @pytest.mark.parametrize("root", [0.3, 0.5 + 3e-9, 0.9, 1.0 - 1e-9])
    def test_misleading_slopes_cost_a_bounded_few_more_evaluations(self, root):
        # A step function whose slope always puts the root a quarter of the
        # width ahead: each probe misses, so without the budget the search
        # would creep toward the root 0.75e-8 at a time.
        width = 1e-8

        def f(x):
            return (1.0 if x < root else -1.0), -4.0 / width

        lower, upper, evals = _search(f, 0.0, 1.0, width)
        *_, halvings = _search(lambda x: (f(x)[0], None), 0.0, 1.0, width)
        assert lower < root <= upper
        assert upper - lower <= width
        assert evals <= halvings + _EXTRA_EVALS


class TestFindThetaThreshold:
    def test_published_boundary(self, params):
        t = find_theta_threshold(params, 1e-5, 1e-2)
        assert t == pytest.approx(7.219e-4, rel=1e-2)

    def test_bisection_is_unchanged(self, params):
        # The trend has no closed-form slope in theta, so every step halves;
        # the boundary keeps the bits plain bisection gave.
        assert find_theta_threshold(params, 1e-5, 1e-2) == 0.0007186505989959361
        link3 = dataclasses.replace(params, fading_m=3.0)
        assert find_theta_threshold(link3, 1e-5, 1e-2) == 0.0007145717916871379

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
        # Gated at theta_lo, then refused as a QoS exponent.
        with pytest.raises(DomainError, match="theta must be finite"):
            find_theta_threshold(params, 1e-5, math.inf)

    def test_tail_computed_once(self, params, monkeypatch):
        # Every evaluation sits at the gating resolution, so one tail
        # probability serves the whole search.
        tails = []

        def counted(*args):
            tails.append(args[1])
            return tail(*args)

        tail = analysis.tail_probability
        monkeypatch.setattr(analysis, "tail_probability", counted)
        assert find_theta_threshold(params, 1e-5, 1e-2) == 0.0007186505989959361
        assert tails == [GATING_RESOLUTION]


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

    @pytest.mark.parametrize("steps", [
        2.5, 3.0, "3", None, 1, -4, True, False,
        pytest.param(np.int64(1), id="int64-1"), pytest.param(np.float64(3.0), id="float64-3"),
        pytest.param(np.bool_(True), id="bool_-True"),
    ])
    def test_steps_must_be_an_int_of_at_least_2(self, params, steps):
        with pytest.raises(DomainError, match="steps must be an int of at least 2"):
            sweep(params, [1e-4], (0.0, 3.0), "EE", steps)

    @pytest.mark.parametrize("gamma0_range", [
        (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan), (1.0, 1.0),
    ])
    def test_range_must_be_finite_and_increasing(self, params, gamma0_range):
        with pytest.raises(DomainError, match="gamma0_range must be finite and increasing"):
            sweep(params, [1e-4], gamma0_range, "EE", 10)

    def test_generator_of_thetas(self, params):
        rows = sweep(params, [1e-4, 1e-5], (0.0, 1.0), "EE", 3)
        assert len(rows) == 6
        assert sweep(params, (t for t in [1e-4, 1e-5]), (0.0, 1.0), "EE", 3) == rows
        with pytest.raises(DomainError, match="thetas must be nonempty"):
            sweep(params, (t for t in []), (0.0, 1.0), "EE", 3)

    def test_numpy_integer_steps(self, params):
        rows = sweep(params, [1e-4], (0.0, 1.0), "F", 3)
        got = sweep(params, [1e-4], (0.0, 1.0), "F", np.int64(3))
        assert got == rows
        assert all(type(g) is float for _, g, _ in got)

    def test_quantity_is_checked_before_any_point(self, params, monkeypatch):
        def no_points(*args):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(optimize, "_modes", no_points)
        monkeypatch.setattr(optimize, "_point", no_points)
        with pytest.raises(DomainError, match="unknown quantity 'entropy'"):
            sweep(params, [1e-4], (0.0, 1.0), "entropy", 10)


PER_POINT = {"EE": energy_efficiency, "alpha": effective_capacity, "G": ee_trend,
             "F": service_mgf}


def outcome(compute):
    """compute()'s value, or the type and message of what it raised."""
    try:
        return compute()
    except Exception as exc:
        return type(exc), str(exc)


def point_by_point(params, thetas, gamma0_range, quantity, steps, method):
    """sweep's rows from the per-point function, stopping at the first
    point that raises, as sweep does."""
    gammas = np.linspace(*gamma0_range, steps).tolist()
    return [
        (theta, g, PER_POINT[quantity](params, QosSpec(theta=theta), g, method))
        for theta in thetas
        for g in gammas
    ]


@pytest.mark.parametrize("quantity", sorted(PER_POINT))
@pytest.mark.parametrize("method", [METHOD_CLOSED, METHOD_EXACT])
class TestSweepMatchesPerPoint:
    # A sweep shares each gamma0's mode probabilities across theta; its
    # rows must be what the per-point functions return, bit for bit, and
    # it must fail where they fail, with the same error.

    @pytest.mark.parametrize("m", [1.5, 2.0, 5.5])
    def test_rows_equal(self, params, quantity, method, m):
        fading = dataclasses.replace(params, fading_m=m)
        steps = 13 if method == METHOD_CLOSED else 4
        args = (fading, [1e-5, 1e-3], (0.0, 3.0), quantity, steps, method)
        rows = sweep(*args)
        assert rows == point_by_point(*args)

    def test_low_snr_overflow(self, params, quantity, method):
        # At tx_power 1e-6 and theta = 0.5 the closed-form log-MGF passes
        # 709 at gamma0 = 0.01, so F, and G and EE with it, pass the float
        # range; the capacity stays finite.
        weak = dataclasses.replace(params, tx_power=1e-6)
        args = (weak, [1e-4, 0.5], (0.01, 1.0), quantity, 3, method)
        got = outcome(lambda: sweep(*args))
        assert got == outcome(lambda: point_by_point(*args))
        overflows = method == METHOD_CLOSED and quantity != "alpha"
        assert (got[0] is DomainError and "passes the float range" in got[1]) == overflows

    def test_zero_total_power(self, params, quantity, method):
        # No circuit or idle power, and no slot transmits at gamma0 = 400,
        # so EE is undefined there. The closed form's Gamma(m + a, 800)
        # underflows at that point as well, so there the other three
        # quantities raise too, with that error.
        idle = dataclasses.replace(params, circuit_power=0.0)
        args = (idle, [1e-4, 1e-6], (0.0, 400.0), quantity, 3, method)
        got = outcome(lambda: sweep(*args))
        assert got == outcome(lambda: point_by_point(*args))
        assert (got[0] is DomainError and "total power is 0 W" in got[1]) == (quantity == "EE")



class TestNumpyScalars:
    # A numpy float32 kept as given pulled the searches' arithmetic down to
    # float32, too coarse to narrow a bracket to 1e-8, and they never
    # returned. The inputs are stored as Python floats, so each search
    # matches its call with the same value as a Python float bit for bit.
    # The stored types are checked before any search is run.
    THETA = np.float32(1e-4)

    def test_stored_as_python_floats(self, params):
        assert type(QosSpec(theta=self.THETA).theta) is float
        link = dataclasses.replace(params, tx_power=np.float32(20.0), fading_m=np.float64(2.0))
        assert type(link.tx_power) is float and type(link.fading_m) is float

    def test_optimal_threshold(self, params):
        qos = QosSpec(theta=self.THETA)
        assert type(qos.theta) is float
        assert find_optimal_threshold(params, qos) == find_optimal_threshold(
            params, QosSpec(theta=float(self.THETA))
        )

    def test_optimal_threshold_on_a_float32_power(self, params, qos_1e4):
        link = dataclasses.replace(params, tx_power=np.float32(params.tx_power))
        assert type(link.tx_power) is float
        plain = dataclasses.replace(params, tx_power=float(np.float32(params.tx_power)))
        got = find_optimal_threshold(link, qos_1e4)
        assert got == find_optimal_threshold(plain, qos_1e4)
        assert type(got.ee_opt) is float

    def test_capacity_inversion(self, params, qos_1e4):
        # Without the conversion the search below never returns; the stored
        # type fails first where the inputs are kept as given.
        assert type(QosSpec(theta=self.THETA).theta) is float
        mu = np.float32(3e5)
        assert invert_effective_capacity(params, qos_1e4, mu) == invert_effective_capacity(
            params, qos_1e4, float(mu)
        )

    def test_sweep_thetas(self, params):
        rows = sweep(params, [self.THETA], (0.0, 3.0), "EE", 5)
        assert rows == sweep(params, [float(self.THETA)], (0.0, 3.0), "EE", 5)
        assert all(type(theta) is float for theta, _, _ in rows)

    @pytest.mark.parametrize("method", [METHOD_CLOSED, METHOD_EXACT])
    def test_point_at_a_float32_threshold(self, params, qos_1e4, method):
        # A float32 gamma0 kept as given ran part of the arithmetic in
        # float32: analyze's EE came back as np.float32(106219.25).
        gamma0 = np.float32(0.5)
        got = analyze(params, qos_1e4, gamma0, method)
        assert got == analyze(params, qos_1e4, float(gamma0), method)
        assert all(type(value) is float for value in dataclasses.astuple(got))
        for point in (effective_capacity, energy_efficiency, ee_trend, service_mgf,
                      log_service_mgf):
            value = point(params, qos_1e4, gamma0, method)
            assert type(value) is float
            assert value == point(params, qos_1e4, float(gamma0), method)
        assert mean_service_rate(params, gamma0) == mean_service_rate(params, float(gamma0))

    def test_sweep_at_float32_range_ends(self, params):
        ends = (np.float32(0.25), np.float32(3.0))
        rows = sweep(params, [1e-4], ends, "EE", 5)
        assert rows == sweep(params, [1e-4], tuple(float(end) for end in ends), "EE", 5)
        assert all(type(value) is float for row in rows for value in row)

    @pytest.mark.parametrize("bad", ["0.5", True, None])
    def test_non_real_threshold_rejected(self, params, qos_1e4, bad):
        with pytest.raises(DomainError, match="gamma0 must be a real number"):
            analyze(params, qos_1e4, bad)
        with pytest.raises(DomainError, match="gamma0_range end must be a real number"):
            sweep(params, [1e-4], (0.0, bad), "EE", 5)

    def test_density_at_a_numpy_scalar(self, params):
        assert pdf(params, np.float32(0.5)) == pdf(params, float(np.float32(0.5)))
        assert pdf(params, 1) == pdf(params, 1.0)
        for bad in (True, "0.5", np.array(0.5)):
            with pytest.raises(DomainError, match="gain must be a real number"):
                pdf(params, bad)

    @pytest.mark.parametrize("m", [2.0, 1.5])
    def test_tail_at_a_float32_threshold(self, params, m):
        # Kept as given, a float32 threshold gave np.float32(0.7357589).
        link = dataclasses.replace(params, fading_m=m)
        got = tail_probability(link, np.float32(0.5))
        assert type(got) is float
        assert got == tail_probability(link, float(np.float32(0.5)))
        assert tail_probability(link, 1) == tail_probability(link, 1.0)

    def test_outage_estimate_at_float32_inputs(self):
        args = (np.float32(0.9), np.float32(100.0), np.float32(0.01))
        got = delay_outage_estimate(*args)
        assert type(got) is float
        assert got == delay_outage_estimate(*(float(a) for a in args))

    @pytest.mark.parametrize("bad", ["0.5", True, None, 1j])
    def test_non_real_tail_or_estimate_input_rejected(self, params, bad):
        with pytest.raises(DomainError, match="threshold must be a real number"):
            tail_probability(params, bad)
        for position, name in enumerate(("p_buffer_nonempty", "theta_seconds", "delay_bound")):
            args = [0.5, 100.0, 0.01]
            args[position] = bad
            with pytest.raises(DomainError, match=f"{name} must be a real number"):
                delay_outage_estimate(*args)

    @pytest.mark.parametrize(
        "args, match",
        [
            # exp(+1) gave a probability of 1.359.
            ((0.5, -100.0, 0.01), "theta_seconds must be nonnegative"),
            ((0.5, -math.inf, 0.01), "theta_seconds must be nonnegative"),
            ((0.5, math.nan, 0.01), "theta_seconds must be nonnegative"),
            # exp(-0 * inf) gave NaN.
            ((0.5, 0.0, math.inf), "delay_bound must be positive and finite"),
        ],
    )
    def test_outage_estimate_out_of_range_rejected(self, args, match):
        with pytest.raises(DomainError, match=match):
            delay_outage_estimate(*args)

    def test_outage_estimate_limits(self):
        # theta_seconds = 0 is no decay, and an infinite exponent decays to 0.
        assert delay_outage_estimate(0.5, 0.0, 0.01) == 0.5
        assert delay_outage_estimate(0.5, math.inf, 0.01) == 0.0


EELINK_ERRORS = tuple(
    value for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, Exception)
)


def log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda x: 10.0**x)


def finite_or_refused(compute):
    """Check that compute() returns a list of finite Python floats, or
    raises one of eelink.errors' types."""
    try:
        values = compute()
    except EELINK_ERRORS:
        return
    assert all(type(v) is float and math.isfinite(v) for v in values), values


@settings(max_examples=150, deadline=None)
@given(
    tx_dbm=st.floats(min_value=0.0, max_value=46.0),
    distance_km=st.floats(min_value=0.1, max_value=3.2),
    circuit_power=st.one_of(st.just(0.0), log_uniform(1e-4, 1.0)),
    m=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 5.5, 20.0]),
    theta=log_uniform(1e-8, 1.0),
    mu=log_uniform(1e2, 3e6),
    theta_lo=log_uniform(1e-8, 1e-4),
    theta_hi=log_uniform(1e-4, 1.0),
    gamma0_hi=log_uniform(1e-6, 316.0),
    quantity=st.sampled_from(["EE", "alpha", "G", "F"]),
)
def test_searches_and_sweeps_are_finite_or_refused(
    tx_dbm, distance_km, circuit_power, m, theta, mu, theta_lo, theta_hi, gamma0_hi, quantity
):
    # Across the documented domain each search and sweep returns finite
    # floats or raises one of eelink's own errors, under both methods where
    # it takes one. A circuit power of 0 W comes with 0 W idle power.
    params = link(m, distance_km, tx_dbm, circuit_power, 0.0)
    qos = QosSpec(theta=theta)

    def optimum():
        r = find_optimal_threshold(params, qos)
        return [r.gamma0_opt, r.ee_opt, r.ee_baseline, *r.bracket]

    finite_or_refused(optimum)
    finite_or_refused(lambda: [find_theta_threshold(params, theta_lo, theta_hi)])
    for method in (METHOD_CLOSED, METHOD_EXACT):
        finite_or_refused(lambda: [invert_effective_capacity(params, qos, mu, method)])
        finite_or_refused(lambda: [
            v for row in sweep(params, [theta], (0.0, gamma0_hi), quantity, 4, method) for v in row
        ])
