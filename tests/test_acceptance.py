"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them on success).
"""

import math

import numpy as np
import pytest

from eelink import (
    QosSpec,
    Regime,
    SimConfig,
    analyze,
    default_params,
    ee_trend,
    effective_capacity,
    energy_efficiency,
    find_optimal_threshold,
    find_theta_threshold,
    improvement_vs_baseline,
    invert_effective_capacity,
    mean_service_rate,
    path_loss_db,
    run,
    service_mgf,
    upper_incomplete_gamma,
)

PARAMS = default_params()

TABLE_ROWS = [
    (1e-4, 0.5323, 1.0623e5, 1.0478e5),
    (1e-5, 1.6293, 1.1441e5, 1.0488e5),
    (1e-6, 1.6606, 1.1544e5, 1.0489e5),
    (1e-7, 1.6636, 1.1554e5, 1.0489e5),
]


def report(line):
    def wrap(test):
        def inner(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"FAIL {line}")
                raise
            print(f"PASS {line}")

        return inner

    return wrap


@report("criterion 1: optimal thresholds and EE values across the QoS table")
def test_criterion_1_table_reproduction():
    for theta, g_ref, ee_ref, ee0_ref in TABLE_ROWS:
        r = find_optimal_threshold(PARAMS, QosSpec(theta=theta))
        assert r.regime is Regime.GATED
        assert abs(r.gamma0_opt - g_ref) <= 1e-3, (theta, r.gamma0_opt)
        assert abs(r.ee_opt - ee_ref) / ee_ref <= 5e-3, (theta, r.ee_opt)
        assert abs(r.ee_baseline - ee0_ref) / ee0_ref <= 5e-3, (theta, r.ee_baseline)


@report("criterion 2: QoS-exponent regime boundary within 1%")
def test_criterion_2_theta_threshold():
    boundary = find_theta_threshold(PARAMS, 1e-5, 1e-2)
    assert abs(boundary - 7.219e-4) / 7.219e-4 <= 1e-2, boundary


@report("criterion 3: effective capacity 1519.7 kbps within 0.1%")
def test_criterion_3_effective_capacity():
    alpha = effective_capacity(PARAMS, QosSpec(theta=1e-4), 0.5323)
    assert abs(alpha - 1519.7e3) / 1519.7e3 <= 1e-3, alpha


@report("criterion 4: capacity inversion bounds 0.53 and 1.73 within 0.01")
def test_criterion_4_capacity_inversion():
    qos = QosSpec(theta=1e-4)
    assert abs(invert_effective_capacity(PARAMS, qos, 1519.7e3) - 0.53) <= 0.01
    assert abs(invert_effective_capacity(PARAMS, qos, 300e3) - 1.73) <= 0.01


@report("criterion 5: simulated EE points within 2% and published gains")
def test_criterion_5_simulation_agreement():
    high = SimConfig(params=PARAMS, arrival_rate=1519.7e3, gamma0=0.53,
                     num_slots=200_000, seed=4)
    low = SimConfig(params=PARAMS, arrival_rate=300e3, gamma0=1.73,
                    num_slots=200_000, seed=4)
    ee_high = run(high).empirical_ee
    ee_low = run(low).empirical_ee
    assert abs(ee_high - 1.06e5) / 1.06e5 <= 0.02, ee_high
    assert abs(ee_low - 1.03e5) / 1.03e5 <= 0.02, ee_low
    assert abs(improvement_vs_baseline(high) - 0.3986) <= 0.02
    assert abs(improvement_vs_baseline(low) - 5.8956) <= 0.30


@report("criterion 6: path loss at 1 km is 128.1 dB exactly")
def test_criterion_6_path_loss():
    assert path_loss_db(1.0) == 128.1


@report("criterion 7a: incomplete-gamma recurrence identity to 1e-9")
def test_criterion_7_recurrence():
    rng = np.random.default_rng(11)
    for v, z in zip(rng.uniform(-4.5, 10.0, 400), rng.uniform(0.01, 20.0, 400)):
        lhs = upper_incomplete_gamma(v + 1.0, z)
        rhs = v * upper_incomplete_gamma(v, z) + math.exp(v * math.log(z) - z)
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs), (v, z)


@report("criterion 7b: service decay moment strictly increasing and in (0, 1)")
def test_criterion_7_mgf_monotone():
    for theta in (1e-6, 1e-5, 1e-4, 1e-3):
        qos = QosSpec(theta=theta)
        grid = np.arange(0.0, 10.0 + 5e-4, 1e-3)
        values = np.array([service_mgf(PARAMS, qos, float(g)) for g in grid])
        assert np.all(np.diff(values) > 0.0)
        assert np.all(values[1:] > 0.0) and np.all(values[1:] < 1.0)


@report("criterion 7c: trend-indicator sign matches the EE slope")
def test_criterion_7_sign_agreement():
    h = 1e-5
    for theta in (1e-6, 1e-5, 1e-4, 1e-3):
        qos = QosSpec(theta=theta)
        for g in np.arange(0.05, 5.0001, 0.05):
            g = float(g)
            if math.copysign(1.0, ee_trend(PARAMS, qos, g - 1e-4)) != math.copysign(
                1.0, ee_trend(PARAMS, qos, g + 1e-4)
            ):
                continue  # within 1e-4 of an indicator zero
            slope = energy_efficiency(PARAMS, qos, g + h) - energy_efficiency(
                PARAMS, qos, g - h
            )
            assert math.copysign(1.0, slope) == math.copysign(1.0, ee_trend(PARAMS, qos, g))


@report("criterion 7d: EE unimodal below the boundary, decreasing above")
def test_criterion_7_regimes():
    qos = QosSpec(theta=1e-4)
    r = find_optimal_threshold(PARAMS, qos)
    grid = np.linspace(0.0, r.bracket[1], 500)
    ee = np.array([energy_efficiency(PARAMS, qos, float(g)) for g in grid])
    peaks = sum(
        1
        for i in range(1, len(ee) - 1)
        if (ee[i] - ee[i - 1]) / ee[i] > 1e-9 and (ee[i] - ee[i + 1]) / ee[i] > 1e-9
    )
    assert peaks == 1, peaks

    strict = QosSpec(theta=1e-3)
    grid = np.linspace(0.0, 3.0, 500)
    ee = [energy_efficiency(PARAMS, strict, float(g)) for g in grid]
    assert all(a > b for a, b in zip(ee, ee[1:]))


@report("criterion 7e: simulated occupancy and power within binomial bounds")
def test_criterion_7_simulator_bounds():
    gamma0 = 0.8
    model = analyze(PARAMS, QosSpec(theta=1e-4), gamma0)
    p_tr = model.p_tr
    for seed in (1, 2, 3):
        rep = run(SimConfig(params=PARAMS, arrival_rate=5e5, gamma0=gamma0,
                            num_slots=100_000, seed=seed))
        n = 100_000 - 5_000
        sigma = math.sqrt(p_tr * (1.0 - p_tr) / n)
        assert abs(rep.p_tr_hat - p_tr) <= 3.0 * sigma
        assert abs(rep.mean_power - model.total_power) <= (
            3.0 * sigma * (PARAMS.tx_power - PARAMS.idle_power)
        )


@report("criterion 7f: vanishing-exponent limit matches the mean rate to 0.1%")
def test_criterion_7_mean_rate_limit():
    tiny = QosSpec(theta=1e-9)
    for gamma0 in (0.0, 0.5):
        alpha = effective_capacity(PARAMS, tiny, gamma0)
        mean_rate = mean_service_rate(PARAMS, gamma0)
        assert abs(alpha - mean_rate) / mean_rate <= 1e-3


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
