"""Monte Carlo validation of the analytics with the slotted queue simulator.

Runs the two published operating points, compares empirical numbers with
their analytical counterparts, and shows the delay-outage tail next to its
large-deviations estimate.
"""

from eelink import (
    QosSpec,
    SimConfig,
    analyze,
    default_params,
    delay_outage_curve,
    delay_outage_estimate,
    ee_vs_threshold_curve,
    effective_capacity,
    improvement_vs_baseline,
    run,
)

params = default_params()
qos = QosSpec(theta=1e-4, delay_bound=0.01)

print("200k-slot runs at the two published operating points (seed 4)")
for mu, gamma0 in ((1519.7e3, 0.53), (300e3, 1.73)):
    cfg = SimConfig(params=params, arrival_rate=mu, gamma0=gamma0,
                    num_slots=200_000, seed=4, delay_bound=qos.delay_bound)
    rep = run(cfg)
    model = analyze(params, qos, gamma0)
    print(f"\n  mu = {mu:.4g} bits/s, gamma0 = {gamma0}")
    print(f"    empirical EE      {rep.empirical_ee:12.1f} bits/J")
    print(f"    p_tr              {rep.p_tr_hat:12.4f}   (model {model.p_tr:.4f})")
    print(f"    mean power        {rep.mean_power:12.4f} W (model {model.total_power:.4f})")
    print(f"    buffer nonempty   {rep.p_b_hat:12.4f}")
    print(f"    delay outage      {rep.delay_outage_hat:12.4f}   "
          f"(estimate {delay_outage_estimate(qos, rep.p_b_hat, qos.theta * mu):.4f})")
    print(f"    EE gain vs gamma0=0   {improvement_vs_baseline(cfg):.2%}")

print("\nEE climbs with the threshold until the rate hits the capacity bound")
base = SimConfig(params=params, arrival_rate=300e3, gamma0=0.0, num_slots=200_000, seed=4)
for pt in ee_vs_threshold_curve(base, [0.0, 0.5, 1.0, 1.5, 1.73, 2.2], qos=qos):
    flag = "  (unstable: rate above capacity)" if pt.unstable else ""
    print(f"  gamma0 {pt.gamma0:5.2f}: EE {pt.report.empirical_ee:10.1f} bits/J{flag}")

print("\nDelay-outage tail near capacity (gamma0 = 0.5, 99.5% load)")
mu = 0.995 * effective_capacity(params, qos, 0.5)
cfg = SimConfig(params=params, arrival_rate=mu, gamma0=0.5, num_slots=200_000, seed=4)
for d, outage in delay_outage_curve(cfg, [0.002, 0.005, 0.01, 0.02, 0.05]):
    print(f"  bound {d * 1e3:5.1f} ms: measured outage {outage:.5f}")
