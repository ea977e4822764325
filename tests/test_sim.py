import dataclasses
import math

import pytest

from eelink import (
    DomainError,
    QueueOverflowError,
    SimConfig,
    delay_outage_curve,
    ee_vs_threshold_curve,
    effective_capacity,
    improvement_vs_baseline,
    mode_probabilities,
    run,
    total_power,
)

SLOTS = 200_000
SEED = 4  # draws land within 0.1% of the analytic mode occupancy


def config(params, mu, gamma0, **kw):
    kw.setdefault("num_slots", SLOTS)
    kw.setdefault("seed", SEED)
    return SimConfig(params=params, arrival_rate=mu, gamma0=gamma0, **kw)


class TestRun:
    def test_published_point_high_rate(self, params):
        report = run(config(params, 1519.7e3, 0.53))
        assert report.empirical_ee == pytest.approx(1.06e5, rel=0.02)

    def test_published_point_low_rate(self, params):
        report = run(config(params, 300e3, 1.73))
        assert report.empirical_ee == pytest.approx(1.03e5, rel=0.02)

    def test_always_transmit_power_is_exact(self, params):
        report = run(config(params, 300e3, 0.0, num_slots=20_000))
        assert report.mean_power == params.circuit_power + params.tx_power
        assert report.empirical_ee == 300e3 / (params.circuit_power + params.tx_power)
        assert report.p_tr_hat == 1.0

    def test_deterministic(self, params):
        a = run(config(params, 300e3, 1.0, num_slots=30_000))
        b = run(config(params, 300e3, 1.0, num_slots=30_000))
        assert a == b
        c = run(config(params, 300e3, 1.0, num_slots=30_000, seed=SEED + 1))
        assert c != a

    def test_probability_fields(self, params):
        report = run(config(params, 300e3, 1.0, num_slots=50_000, delay_bound=0.05))
        assert report.p_tr_hat + report.p_idle_hat == 1.0
        for p in (report.p_tr_hat, report.p_b_hat, report.delay_outage_hat):
            assert 0.0 <= p <= 1.0
        assert report.slots_run == 50_000
        assert report.seed == SEED

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mode_occupancy_within_three_sigma(self, params, seed):
        gamma0 = 0.8
        report = run(config(params, 5e5, gamma0, num_slots=100_000, seed=seed))
        p_tr, _ = mode_probabilities(params, gamma0)
        n = 100_000 - 5_000  # post-warmup slots
        sigma = math.sqrt(p_tr * (1.0 - p_tr) / n)
        assert abs(report.p_tr_hat - p_tr) <= 3.0 * sigma
        power_tol = 3.0 * sigma * (params.tx_power - params.idle_power)
        assert abs(report.mean_power - total_power(params, gamma0)) <= power_tol

    def test_queue_stays_stable_below_capacity(self, params, qos_1e4):
        gamma0 = 1.0
        mu = 0.95 * effective_capacity(params, qos_1e4, gamma0)
        for seed in range(1, 6):
            short = run(config(params, mu, gamma0, num_slots=200_000, seed=seed))
            long = run(config(params, mu, gamma0, num_slots=400_000, seed=seed))
            assert math.isfinite(short.mean_queue)
            assert long.max_queue / short.max_queue < 1.5

    def test_overflow_guard(self, params):
        with pytest.raises(QueueOverflowError):
            run(config(params, 1e13, 0.5, num_slots=500))

    def test_config_validation(self, params):
        with pytest.raises(DomainError):
            config(params, -1.0, 0.5)
        with pytest.raises(DomainError):
            config(params, 1e5, -0.5)
        with pytest.raises(DomainError):
            config(params, 1e5, 0.5, num_slots=0)
        with pytest.raises(DomainError):
            config(params, 1e5, 0.5, num_slots=100, warmup_slots=100)


class TestImprovement:
    def test_published_high_rate_gain(self, params):
        gain = improvement_vs_baseline(config(params, 1519.7e3, 0.53))
        assert gain == pytest.approx(0.3986, abs=0.02)

    def test_published_low_rate_gain(self, params):
        gain = improvement_vs_baseline(config(params, 300e3, 1.73))
        assert gain == pytest.approx(5.8956, abs=0.3)

    def test_self_comparison_is_zero(self, params):
        assert improvement_vs_baseline(config(params, 300e3, 0.0, num_slots=10_000)) == 0.0


class TestCurve:
    def test_ee_increases_up_to_the_bound(self, params, qos_1e4):
        points = ee_vs_threshold_curve(
            config(params, 300e3, 0.0), [0.0, 0.5, 1.0, 1.5, 1.73], qos=qos_1e4
        )
        ee = [pt.report.empirical_ee for pt in points]
        assert all(a < b for a, b in zip(ee, ee[1:]))
        assert not any(pt.unstable for pt in points)

    def test_infeasible_rows_are_flagged_not_dropped(self, params, qos_1e4):
        points = ee_vs_threshold_curve(
            config(params, 300e3, 0.0, num_slots=20_000), [1.0, 3.0], qos=qos_1e4
        )
        assert [pt.gamma0 for pt in points] == [1.0, 3.0]
        assert not points[0].unstable
        assert points[1].unstable
        assert points[1].report is not None  # guard not tripped, run kept

    def test_any_fading_m(self, params, qos_1e4):
        # The stability flag follows the closed-form capacity at m = 3 too:
        # about 899.6e3, 369.4e3 and 133.2e3 bit/s at the three thresholds.
        rician_like = dataclasses.replace(params, fading_m=3.0)
        points = ee_vs_threshold_curve(
            config(rician_like, 300e3, 0.0, num_slots=20_000), [1.0, 1.5, 2.0], qos=qos_1e4
        )
        assert [pt.unstable for pt in points] == [False, False, True]
        assert all(pt.report is not None for pt in points)

    def test_single_point_curve(self, params):
        points = ee_vs_threshold_curve(config(params, 300e3, 0.0, num_slots=5_000), [0.0])
        assert len(points) == 1
        assert points[0].report.p_tr_hat == 1.0

    def test_deterministic(self, params, qos_1e4):
        grid = [0.0, 0.8, 1.6]
        a = ee_vs_threshold_curve(config(params, 300e3, 0.0, num_slots=20_000), grid, qos=qos_1e4)
        b = ee_vs_threshold_curve(config(params, 300e3, 0.0, num_slots=20_000), grid, qos=qos_1e4)
        assert a == b


class TestDelayTail:
    def test_outage_decays_with_the_bound(self, params, qos_1e4):
        gamma0 = 0.5
        mu = 0.995 * effective_capacity(params, qos_1e4, gamma0)
        bounds = [0.002, 0.005, 0.01, 0.02, 0.05]
        curve = delay_outage_curve(config(params, mu, gamma0), bounds)
        outages = [o for _, o in curve]
        assert all(o > 0.0 for o in outages)
        assert all(a > b for a, b in zip(outages, outages[1:]))

    def test_waiting_time_scale(self, params):
        # One fluid-FIFO sanity point: outage at a bound beyond the largest
        # observed wait is zero.
        report = run(config(params, 1e5, 0.3, num_slots=20_000, delay_bound=1e9))
        assert report.delay_outage_hat == 0.0
