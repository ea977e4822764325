"""Tour of the channel model and the effective-capacity analytics.

Walks from raw unit conversions to the capacity/EE numbers for the
reference link, printing small tables along the way.
"""

import numpy as np

from eelink import (
    METHOD_EXACT,
    QosSpec,
    analyze,
    cdf,
    default_params,
    dbm_to_watt,
    effective_capacity,
    path_loss_db,
    sample_gains,
)

params = default_params()

print("Reference link")
print(f"  tx power          {params.tx_power:.4f} W  (= {dbm_to_watt(43.0):.4f} W from 43 dBm)")
print(f"  path loss         {path_loss_db(1.0):.1f} dB at 1 km -> {params.path_loss:.4e} linear")
print(f"  mean SNR          {params.mean_snr:.1f}")
print(f"  exponent rate     {params.exponent_rate:.4f} (per unit QoS exponent)")

print("\nChannel gain distribution (m = 2), model vs 1e6 draws")
rng = np.random.default_rng(0)
draws = sample_gains(params, rng, 1_000_000)
for g in (0.25, 0.5323, 1.0, 2.0):
    empirical = np.count_nonzero(draws < g) / draws.size
    print(f"  P(gain < {g:6.4f})  model {cdf(params, g):.5f}   empirical {empirical:.5f}")

print("\nEffective capacity vs threshold (theta = 1e-4)")
qos = QosSpec(theta=1e-4)
print(f"  {'gamma0':>8} {'p_tr':>8} {'power W':>9} {'capacity bps':>14} {'EE bits/J':>12}")
for g in (0.0, 0.25, 0.5323, 1.0, 1.73):
    r = analyze(params, qos, g)
    print(
        f"  {g:8.4f} {r.p_tr:8.4f} {r.total_power:9.4f}"
        f" {r.effective_capacity:14.1f} {r.ee:12.1f}"
    )

print("\nTighter QoS shrinks the capacity (gamma0 = 0.5)")
for theta in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
    closed = effective_capacity(params, QosSpec(theta=theta), 0.5)
    exact = effective_capacity(params, QosSpec(theta=theta), 0.5, METHOD_EXACT)
    print(f"  theta {theta:7.0e}: closed form {closed:12.1f}   exact {exact:12.1f} bits/s")
