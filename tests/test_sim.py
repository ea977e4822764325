import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from eelink import (
    DomainError,
    QueueOverflowError,
    SimConfig,
    delay_outage_curve,
    ee_vs_threshold_curve,
    effective_capacity,
    analyze,
    improvement_vs_baseline,
    run,
)
from eelink.channel import sample_gains
from eelink.sim import QUEUE_GUARD_BITS, _BLOCK_SLOTS

SLOTS = 200_000
SEED = 4  # draws land within 0.1% of the analytic mode occupancy
C = _BLOCK_SLOTS


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
    def test_mode_occupancy_within_three_sigma(self, params, qos_1e4, seed):
        gamma0 = 0.8
        report = run(config(params, 5e5, gamma0, num_slots=100_000, seed=seed))
        model = analyze(params, qos_1e4, gamma0)
        p_tr = model.p_tr
        n = 100_000 - 5_000  # post-warmup slots
        sigma = math.sqrt(p_tr * (1.0 - p_tr) / n)
        assert abs(report.p_tr_hat - p_tr) <= 3.0 * sigma
        power_tol = 3.0 * sigma * (params.tx_power - params.idle_power)
        assert abs(report.mean_power - model.total_power) <= power_tol

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

    def test_zero_mean_power_is_a_domain_error(self, params):
        # No circuit or idle power and no slot transmitted: EE is undefined.
        link = dataclasses.replace(params, circuit_power=0.0)
        with pytest.raises(DomainError, match="mean power is 0 W"):
            run(config(link, 1e5, 400.0, num_slots=1000))

    def test_config_validation(self, params):
        with pytest.raises(DomainError):
            config(params, -1.0, 0.5)
        with pytest.raises(DomainError):
            config(params, 1e5, -0.5)
        with pytest.raises(DomainError):
            config(params, 1e5, 0.5, num_slots=0)
        with pytest.raises(DomainError):
            config(params, 1e5, 0.5, num_slots=100, warmup_slots=100)
        with pytest.raises(DomainError, match="seed must be nonnegative"):
            config(params, 1e5, 0.5, seed=-1)
        for bound in (0.0, -1.0):
            with pytest.raises(DomainError, match="delay_bound must be positive"):
                config(params, 1e5, 0.5, delay_bound=bound)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["arrival_rate", "gamma0", "delay_bound"])
    def test_nonfinite_rejected(self, params, field, value):
        kw = {"arrival_rate": 1e5, "gamma0": 0.5, "delay_bound": 0.01, field: value}
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            SimConfig(params=params, num_slots=100, seed=1, **kw)


def whole_array_run(config):
    """The simulator as one pass over whole arrays: one gain draw, one
    cumsum and one running minimum over every slot. Returns the report's
    fields and the first slot past the stability guard (None if none)."""
    p = config.params
    gains = sample_gains(p, np.random.default_rng(config.seed), config.num_slots)
    snr = p.mean_snr
    transmit = gains >= config.gamma0
    service = np.where(transmit, p.slot_duration * p.bandwidth * np.log2(1.0 + snr * gains), 0.0)
    path = np.cumsum(config.arrival_rate * p.slot_duration - service)
    queue = path - np.minimum(np.minimum.accumulate(path), 0.0)
    over = queue > QUEUE_GUARD_BITS
    overflow_slot = int(np.argmax(over)) if over.any() else None
    warmup = config.resolved_warmup()
    q, n = queue[warmup:], config.num_slots - warmup
    p_tr = np.count_nonzero(transmit[warmup:]) / n
    fields = {
        "p_tr_hat": p_tr,
        "p_b_hat": np.count_nonzero(q > 0.0) / n,
        "delay_outage_hat": None if config.delay_bound is None
        else np.count_nonzero(q / config.arrival_rate > config.delay_bound) / n,
        "mean_queue": float(q.mean()),
        "max_queue": float(q.max()),
        "mean_power": p.circuit_power + p.tx_power * p_tr + p.idle_power * (1.0 - p_tr),
    }
    return fields, overflow_slot


def assert_matches_whole_array(config):
    expected, overflow_slot = whole_array_run(config)
    assert overflow_slot is None
    report = run(config)
    for name, value in expected.items():
        if name == "mean_queue":
            # Summed block by block rather than in one pairwise sum.
            assert report.mean_queue == pytest.approx(value, rel=1e-12, abs=0.0)
        else:
            assert getattr(report, name) == value, name


class TestBlocks:
    """The blockwise pass against the whole-array form at block edges."""

    @pytest.mark.parametrize("num_slots", [1, C - 1, C, C + 1, 2 * C + 1])
    @pytest.mark.parametrize("m", [0.5, 2.0, 5.5])
    def test_num_slots_across_block_edges(self, params, num_slots, m):
        link = dataclasses.replace(params, fading_m=m)
        assert_matches_whole_array(
            config(link, 8e5, 0.6, num_slots=num_slots, seed=11, delay_bound=0.01)
        )

    @pytest.mark.parametrize("warmup", [C // 2, C, C + C // 3])
    def test_warmup_across_block_edges(self, params, warmup):
        assert_matches_whole_array(
            config(params, 8e5, 0.6, num_slots=2 * C + 1, delay_bound=0.01, warmup_slots=warmup)
        )

    def test_overflow_in_a_later_block_reports_its_global_slot(self, params):
        cfg = config(params, 1.2e10, 0.5, num_slots=2 * C + 1)
        _, overflow_slot = whole_array_run(cfg)
        assert C < overflow_slot < 2 * C
        with pytest.raises(QueueOverflowError, match=f"at slot {overflow_slot};"):
            run(cfg)

    def test_memory_does_not_grow_with_slots(self, params):
        def peak(num_slots):
            cfg = config(params, 1519.7e3, 0.53, num_slots=num_slots, delay_bound=0.01)
            tracemalloc.start()
            try:
                run(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2_000_000) <= 1.5 * peak(200_000)


class TestImprovement:
    def test_published_high_rate_gain(self, params):
        gain = improvement_vs_baseline(config(params, 1519.7e3, 0.53))
        assert gain == pytest.approx(0.3986, abs=0.02)

    def test_published_low_rate_gain(self, params):
        gain = improvement_vs_baseline(config(params, 300e3, 1.73))
        assert gain == pytest.approx(5.8956, abs=0.3)

    def test_self_comparison_is_zero(self, params):
        assert improvement_vs_baseline(config(params, 300e3, 0.0, num_slots=10_000)) == 0.0

    def test_matches_a_zero_threshold_run(self, params):
        cfg = config(params, 1519.7e3, 0.53, num_slots=C + 1)
        gated = run(cfg)
        baseline = run(dataclasses.replace(cfg, gamma0=0.0))
        gain = improvement_vs_baseline(cfg)
        assert gain == (gated.empirical_ee - baseline.empirical_ee) / baseline.empirical_ee
        full_power = params.circuit_power + params.tx_power
        assert gain == pytest.approx(full_power / gated.mean_power - 1.0, rel=1e-14)

    def test_overflow_guard(self, params):
        with pytest.raises(QueueOverflowError):
            improvement_vs_baseline(config(params, 1e13, 0.5, num_slots=500))


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

    def test_one_pass_matches_a_run_per_bound(self, params):
        cfg = config(params, 8e5, 0.6, num_slots=2 * C + 1, delay_bound=0.5)
        bounds = [0.001, 0.005, 0.01, 0.05]
        assert delay_outage_curve(cfg, bounds) == [
            (d, run(dataclasses.replace(cfg, delay_bound=d)).delay_outage_hat) for d in bounds
        ]

    def test_nonpositive_bound_rejected(self, params):
        with pytest.raises(DomainError):
            delay_outage_curve(config(params, 8e5, 0.6, num_slots=1_000), [0.01, 0.0])

    def test_waiting_time_scale(self, params):
        # One fluid-FIFO sanity point: outage at a bound beyond the largest
        # observed wait is zero.
        report = run(config(params, 1e5, 0.3, num_slots=20_000, delay_bound=1e9))
        assert report.delay_outage_hat == 0.0
