import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from eelink import sim
from eelink.channel import sample_gains
from eelink.sim import QUEUE_GUARD_BITS, _BLOCK_SLOTS

SLOTS = 200_000
SEED = 4  # draws land within 0.1% of the analytic mode occupancy
C = _BLOCK_SLOTS


def config(params, mu, gamma0, **kw):
    kw.setdefault("num_slots", SLOTS)
    kw.setdefault("seed", SEED)
    return SimConfig(params=params, arrival_rate=mu, gamma0=gamma0, **kw)


@pytest.fixture
def walks(monkeypatch):
    """The configs of the walks made from here on, one per walk."""
    seen = []
    walk = sim._walk

    def counted_walk(config, delay_bounds):
        seen.append(config)
        return walk(config, delay_bounds)

    monkeypatch.setattr(sim, "_walk", counted_walk)
    return seen


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

    @pytest.mark.parametrize(
        "mu, slot_duration, match",
        [
            # The arrivals per slot, 1e5 * 1e307, are inf.
            (1e5, 1e307, "arrivals per slot"),
            # Finite arrivals, but some slots' service is inf.
            (1e-300, 1e307, "per-slot service"),
            # Every slot's service is finite, their running sum is not.
            (1e-300, 1e306, "per-slot service"),
        ],
    )
    def test_walk_past_the_float_range_is_a_domain_error(self, params, mu, slot_duration, match):
        # The queue was NaN from the first such slot on: run reported
        # mean_queue NaN and max_queue 0, with numpy's RuntimeWarnings.
        link = dataclasses.replace(
            params, slot_duration=slot_duration, bandwidth=1.0, distance_km=None, path_loss=1.0
        )
        cfg = config(link, mu, 0.5, num_slots=1_000)
        with pytest.raises(DomainError, match=match):
            run(cfg)
        with pytest.raises(DomainError, match=match):
            delay_outage_curve(cfg, [0.01, 1.0])

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

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("seed", 2.0), ("seed", True), ("seed", None),
         ("num_slots", 1000.5), ("num_slots", 1000.0), ("num_slots", False),
         ("warmup_slots", 10.5), ("warmup_slots", True)],
    )
    def test_counts_must_be_integers(self, params, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            config(params, 1e5, 0.5, **{"num_slots": 1000, field: value})

    def test_numpy_integer_counts_run_as_their_value(self, params):
        cfg = config(params, 1e5, 0.5, num_slots=np.int32(1000), seed=np.int64(SEED),
                     warmup_slots=np.uint16(50))
        assert run(cfg) == run(config(params, 1e5, 0.5, num_slots=1000, warmup_slots=50))

    def test_narrow_numpy_counts_are_stored_as_ints(self, params):
        # An int8 warmup kept as given overflowed in the walk's arithmetic
        # with the Python-int slot count.
        cfg = config(params, np.float32(1e5), np.float32(0.5), num_slots=np.int16(1000),
                     seed=np.uint8(SEED), warmup_slots=np.int8(5))
        assert [type(getattr(cfg, f)) for f in ("num_slots", "seed", "warmup_slots")] == [int] * 3
        assert type(cfg.arrival_rate) is float and type(cfg.gamma0) is float
        plain = config(params, float(np.float32(1e5)), float(np.float32(0.5)), num_slots=1000,
                       warmup_slots=5)
        assert run(cfg) == run(plain)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["arrival_rate", "gamma0", "delay_bound"])
    def test_nonfinite_rejected(self, params, field, value):
        kw = {"arrival_rate": 1e5, "gamma0": 0.5, "delay_bound": 0.01, field: value}
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            SimConfig(params=params, num_slots=100, seed=1, **kw)

    @pytest.mark.parametrize("field, value", [
        ("arrival_rate", "1e5"), ("arrival_rate", True), ("arrival_rate", None),
        ("gamma0", None), ("gamma0", "0.5"), ("delay_bound", "0.1"), ("delay_bound", False),
    ])
    def test_wrong_type_rejected(self, params, field, value):
        # A string fails the range checks with a bare TypeError, and True
        # would pass them as 1.
        kw = {"arrival_rate": 1e5, "gamma0": 0.5, field: value}
        with pytest.raises(DomainError, match=f"{field} must be a real number"):
            SimConfig(params=params, num_slots=100, seed=1, **kw)

    @pytest.mark.parametrize("value", [None, "default", {}])
    def test_params_must_be_a_link(self, value):
        with pytest.raises(DomainError, match="params must be a SystemParams"):
            SimConfig(params=value, arrival_rate=1e5, gamma0=0.5, num_slots=100, seed=1)

    def test_numpy_scalars_accepted(self, params):
        cfg = config(params, np.float32(1e5), np.int64(0), delay_bound=np.float16(0.5))
        assert (cfg.arrival_rate, cfg.gamma0, cfg.delay_bound) == (1e5, 0, 0.5)


def whole_array_queue(config):
    """The simulator's queue as one pass over whole arrays: one gain draw,
    one cumsum and one running minimum over every slot. Returns each slot's
    transmit flag and backlog in bits."""
    p = config.params
    gains = sample_gains(p, np.random.default_rng(config.seed), config.num_slots)
    snr = p.mean_snr
    transmit = gains >= config.gamma0
    service = np.where(transmit, p.slot_duration * p.bandwidth * np.log2(1.0 + snr * gains), 0.0)
    path = np.cumsum(config.arrival_rate * p.slot_duration - service)
    return transmit, path - np.minimum(np.minimum.accumulate(path), 0.0)


def whole_array_run(config):
    """The report's fields from whole_array_queue, and the first slot past
    the stability guard (None if none)."""
    p = config.params
    transmit, queue = whole_array_queue(config)
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
    @pytest.mark.parametrize(
        "m, gamma0",
        # Both sampler routes: a product of two uniforms at m = 2, each gain
        # two draws wide, and rng.gamma at m = 0.5, 1, 3 and 5.5.
        [pytest.param(m, 0.6, id=str(m)) for m in (0.5, 1.0, 2.0, 3.0, 5.5)]
        # Every slot transmits; and no draw reaches the threshold, so every
        # slot serves log2(1) = 0 bits and the queue holds every arrival.
        + [pytest.param(m, g, id=f"{m}-gamma0={g}") for m in (0.5, 2.0, 5.5) for g in (0.0, 1e3)],
    )
    def test_num_slots_across_block_edges(self, params, num_slots, m, gamma0):
        link = dataclasses.replace(params, fading_m=m)
        assert_matches_whole_array(
            config(link, 8e5, gamma0, num_slots=num_slots, seed=11, delay_bound=0.01)
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

    @pytest.mark.parametrize("m", [0.5, 2.0, 5.5])
    def test_each_slot_service_bit_for_bit(self, params, m):
        # A one-slot run whose arrival a sits just above that slot's service
        # s: its only partial sum a - s is near 0 and exact (a and s are
        # within a factor of 2), so max_queue moves with the last bit of s.
        link = dataclasses.replace(params, fading_m=m)
        rate_scale = link.slot_duration * link.bandwidth
        for seed in range(48):
            gain = sample_gains(link, np.random.default_rng(seed), 1)
            service = float(rate_scale * np.log2(1.0 + link.mean_snr * gain)[0])
            cfg = config(link, service * (1.0 + 1e-9) / link.slot_duration, 0.0,
                         num_slots=1, seed=seed)
            report = run(cfg)
            assert report.max_queue == cfg.arrival_rate * link.slot_duration - service
            assert report.max_queue > 0.0

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
        gain = improvement_vs_baseline(dataclasses.replace(cfg))  # its own run
        assert gain == (gated.empirical_ee - baseline.empirical_ee) / baseline.empirical_ee
        full_power = params.circuit_power + params.tx_power
        assert gain == pytest.approx(full_power / gated.mean_power - 1.0, rel=1e-14)

    def test_overflow_guard(self, params):
        with pytest.raises(QueueOverflowError):
            improvement_vs_baseline(config(params, 1e13, 0.5, num_slots=500))

    @pytest.mark.parametrize("mu, gamma0", [(1519.7e3, 0.53), (300e3, 1.73)])
    def test_after_run_the_count_is_reused_bit_for_bit(self, params, mu, gamma0, walks):
        cold_cfg = config(params, mu, gamma0, delay_bound=0.01)
        cold = improvement_vs_baseline(cold_cfg)
        assert walks == [cold_cfg]
        cfg = dataclasses.replace(cold_cfg)
        report = run(cfg)
        warm = improvement_vs_baseline(cfg)
        assert len(walks) == 2  # run's walk, and none for the gain
        assert warm == cold
        full_power = params.circuit_power + params.tx_power
        assert warm == pytest.approx(full_power / report.mean_power - 1.0, rel=1e-14)

    @pytest.mark.parametrize(
        "change",
        [{"params": {"fading_m": 3.0}}, {"seed": SEED + 1}, {"num_slots": C + 2},
         {"warmup_slots": 10}, {"gamma0": 0.6}],
        ids=["fading_m", "seed", "num_slots", "warmup_slots", "gamma0"],
    )
    def test_a_change_to_the_count_makes_a_pass(self, params, change, walks):
        cfg = config(params, 1519.7e3, 0.53, num_slots=C + 1)
        run(cfg)
        link = change.pop("params", None)
        if link is not None:
            change["params"] = dataclasses.replace(params, **link)
        other = dataclasses.replace(cfg, **change)
        gain = improvement_vs_baseline(other)
        assert len(walks) == 2 and walks[1] is other
        assert gain == improvement_vs_baseline(dataclasses.replace(other))

    def test_an_equal_config_makes_its_own_run(self, params, walks):
        cfg = config(params, 1519.7e3, 0.53, num_slots=C + 1)
        gain = improvement_vs_baseline(cfg)
        other = dataclasses.replace(cfg)
        assert other == cfg
        assert improvement_vs_baseline(other) == gain
        assert len(walks) == 2 and walks[1] is other
        assert improvement_vs_baseline(cfg) == gain  # cfg kept its own run's report
        assert len(walks) == 2

    def test_an_overflowed_run_leaves_no_count(self, params, walks):
        cfg = config(params, 1e13, 0.5, num_slots=500)
        with pytest.raises(QueueOverflowError):
            run(cfg)
        assert not hasattr(cfg, "_report")
        with pytest.raises(QueueOverflowError):
            improvement_vs_baseline(cfg)
        assert walks == [cfg, cfg]

    def test_zero_mean_power_run_leaves_no_report(self, params, walks):
        link = dataclasses.replace(params, circuit_power=0.0)
        cfg = config(link, 1e5, 400.0, num_slots=1000)
        with pytest.raises(DomainError, match="mean power is 0 W"):
            run(cfg)
        assert not hasattr(cfg, "_report")
        with pytest.raises(DomainError, match="mean power is 0 W"):
            improvement_vs_baseline(cfg)
        assert walks == [cfg, cfg]


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

    def test_rows_stopped_by_the_guard_keep_their_flag(self, params, qos_1e4):
        # As in TestRun::test_overflow_guard, the queue passes the stability
        # guard at every threshold.
        points = ee_vs_threshold_curve(
            config(params, 1e13, 0.0, num_slots=500), [0.0, 0.5, 1.0], qos=qos_1e4
        )
        assert [pt.gamma0 for pt in points] == [0.0, 0.5, 1.0]
        assert all(pt.report is None and pt.unstable for pt in points)

    def test_any_fading_m(self, params, qos_1e4):
        # The stability flag follows the exact capacity at m = 3 too: about
        # 899.6e3, 369.4e3 and 133.2e3 bit/s at the three thresholds.
        rician_like = dataclasses.replace(params, fading_m=3.0)
        points = ee_vs_threshold_curve(
            config(rician_like, 300e3, 0.0, num_slots=20_000), [1.0, 1.5, 2.0], qos=qos_1e4
        )
        assert [pt.unstable for pt in points] == [False, False, True]
        assert all(pt.report is not None for pt in points)

    def test_flags_follow_the_exact_capacity_on_a_low_snr_link(self, params, qos_1e4):
        # At 1 uW the closed-form capacity is negative (-2.26e6, -1.64e6 and
        # -8.9e5 bit/s); the exact one is 56.1, 51.6 and 38.0 bit/s.
        faint = dataclasses.replace(params, tx_power=1e-6)
        points = ee_vs_threshold_curve(
            config(faint, 10.0, 0.0, num_slots=5_000), [0.0, 0.5, 1.0], qos=qos_1e4
        )
        assert [pt.unstable for pt in points] == [False, False, False]
        assert all(pt.report is not None for pt in points)

    def test_single_point_curve(self, params, qos_1e4):
        points = ee_vs_threshold_curve(
            config(params, 300e3, 0.0, num_slots=5_000), [0.0], qos=qos_1e4
        )
        assert len(points) == 1
        assert points[0].report.p_tr_hat == 1.0

    def test_deterministic(self, params, qos_1e4):
        grid = [0.0, 0.8, 1.6]
        a = ee_vs_threshold_curve(config(params, 300e3, 0.0, num_slots=20_000), grid, qos=qos_1e4)
        b = ee_vs_threshold_curve(config(params, 300e3, 0.0, num_slots=20_000), grid, qos=qos_1e4)
        assert a == b


class TestDelayTail:
    def test_outage_decays_with_the_bound(self, params, qos_1e4):
        # At 50 ms the outage is a rare event: over seeds 0-59, 53 paths of
        # 200k slots count none there with gains from a product of two
        # uniforms (51 and 54 under the two earlier samplers). Positive and
        # strictly decreasing up to 20 ms held on all 60 under all three.
        # One walk counts every bound, so a longer bound can never count
        # more outages on any path.
        gamma0 = 0.5
        mu = 0.995 * effective_capacity(params, qos_1e4, gamma0)
        bounds = [0.002, 0.005, 0.01, 0.02, 0.05]
        curve = delay_outage_curve(config(params, mu, gamma0), bounds)
        outages = [o for _, o in curve]
        assert all(o > 0.0 for o in outages[:4])
        assert all(a > b for a, b in zip(outages[:4], outages[1:4]))
        assert all(a >= b for a, b in zip(outages, outages[1:]))

    def test_one_pass_matches_a_run_per_bound(self, params):
        cfg = config(params, 8e5, 0.6, num_slots=2 * C + 1, delay_bound=0.5)
        bounds = [0.001, 0.005, 0.01, 0.05]
        assert delay_outage_curve(cfg, bounds) == [
            (d, run(dataclasses.replace(cfg, delay_bound=d)).delay_outage_hat) for d in bounds
        ]

    def test_nonpositive_bound_rejected(self, params):
        with pytest.raises(DomainError):
            delay_outage_curve(config(params, 8e5, 0.6, num_slots=1_000), [0.01, 0.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_bound_rejected(self, params, value):
        with pytest.raises(DomainError, match="delay_bound must be finite"):
            delay_outage_curve(config(params, 8e5, 0.6, num_slots=1_000), [value, 0.01])

    @pytest.mark.parametrize("value", ["0.01", True, 1j])
    def test_non_real_bound_rejected(self, params, value):
        # The bounds pass SimConfig's own check, which refuses a bool too.
        with pytest.raises(DomainError, match="delay_bound must be a real number"):
            delay_outage_curve(config(params, 8e5, 0.6, num_slots=1_000), [0.01, value])

    def test_none_bound_rejected(self, params):
        # SimConfig takes delay_bound=None as no bound; in a list of bounds
        # it failed the walk's comparison with a bare TypeError.
        with pytest.raises(DomainError, match="delay_bound must be a real number, got None"):
            delay_outage_curve(config(params, 8e5, 0.6, num_slots=1_000), [0.01, None])

    @pytest.mark.parametrize("mu, gamma0", [(8e5, 0.6), (1519.7e3, 0.53), (3.5e4, 1.2)])
    def test_bounds_at_observed_waits(self, params, mu, gamma0):
        # The walk counts q >= cut, with cut the least float whose wait
        # cut / arrival_rate passes the bound. At a bound equal to an
        # observed wait q / arrival_rate, or a float either side of it,
        # that slot's count turns on the last bit of the cut, so a cut one
        # ulp off in either direction fails here.
        cfg = config(params, mu, gamma0, num_slots=2 * C + 1)
        _, queue = whole_array_queue(cfg)
        waits = queue[cfg.resolved_warmup():] / cfg.arrival_rate
        observed = np.unique(waits[waits > 0.0])
        picks = [float(w) for w in observed[:: max(1, observed.size // 40)]]
        bounds = sorted({b for w in picks for b in (math.nextafter(w, 0.0), w, math.nextafter(w, 1.0))})
        assert delay_outage_curve(cfg, bounds) == [
            (d, np.count_nonzero(waits > d) / waits.size) for d in bounds
        ]

    @settings(max_examples=500, deadline=None)
    @given(
        arrival_rate=st.floats(min_value=5e-324, max_value=1.7e308, allow_infinity=False),
        bound=st.floats(min_value=5e-324, max_value=1.7e308, allow_infinity=False),
    )
    @example(arrival_rate=1e300, bound=1e300)  # no finite backlog waits that long
    @example(arrival_rate=1e-300, bound=1e-300)  # bound * arrival_rate underflows to 0
    @example(arrival_rate=3.0, bound=0.1)
    # A subnormal bound: the cut lies about 2^52 ulps past bound * arrival_rate.
    @example(arrival_rate=1.7e308, bound=5e-324)
    def test_outage_cut_is_the_least_passing_backlog(self, arrival_rate, bound):
        # Correctly rounded division is nondecreasing in q, so q >= cut
        # exactly when q / arrival_rate > bound, for every q.
        cut = sim._outage_cut(bound, arrival_rate)
        assert cut / arrival_rate > bound
        assert not math.nextafter(cut, -math.inf) / arrival_rate > bound

    def test_waiting_time_scale(self, params):
        # One fluid-FIFO sanity point: outage at a bound beyond the largest
        # observed wait is zero.
        report = run(config(params, 1e5, 0.3, num_slots=20_000, delay_bound=1e9))
        assert report.delay_outage_hat == 0.0
