"""The workloads' operations, as calls into eelink.

The entry points put the checkout's `src` first on sys.path before importing
this module; the import below refuses any other copy of eelink, so the
benchmark always measures the tree it was started from.

Every call goes through a module attribute (`optimize.sweep`, not a name
imported from eelink), so the tracer's wrappers see the benchmark's own calls
as well as the calls eelink's modules make to each other.
"""

from __future__ import annotations

import os

import eelink
from eelink import analysis, channel, optimize, sim

import gen
from cliops import SRC, run_cli

if os.path.dirname(os.path.dirname(os.path.abspath(eelink.__file__))) != SRC:
    raise ImportError(f"eelink was imported from {eelink.__file__}, not from {SRC}")


def system_params(link: dict) -> channel.SystemParams:
    return channel.SystemParams(
        slot_duration=gen.SLOT_DURATION,
        bandwidth=gen.BANDWIDTH,
        noise_density=channel.dbm_to_watt(gen.NOISE_DBM_PER_HZ),
        tx_power=channel.dbm_to_watt(link["tx_power_dbm"]),
        circuit_power=link["circuit_power"],
        idle_power=link["idle_power"],
        fading_m=link["fading_m"],
        distance_km=link["distance_km"],
    )


def solve(op: dict) -> dict:
    """A paper-style solve of one m = 2 link: the EE-optimal threshold and
    the analytics there at every theta of the set, two capacity
    inversions, the regime boundary, and EE/G/F sweeps."""
    params = system_params(op["link"])
    optima = []
    for theta in gen.CLOSED_THETAS:
        qos = analysis.QosSpec(theta=theta)
        best = optimize.find_optimal_threshold(params, qos)
        optima.append((theta, best, analysis.analyze(params, qos, best.gamma0_opt)))
    qos = analysis.QosSpec(theta=gen.INVERT_THETA)
    if op["mu"] is not None:
        mus = op["mu"]
    else:
        # The fractions apply to the zero-threshold capacity, which the
        # solve already has as the baseline EE times the full power.
        full_power = params.circuit_power + params.tx_power
        base = next(o.ee_baseline for t, o, _ in optima if t == gen.INVERT_THETA)
        mus = tuple(f * base * full_power for f in op["mu_fractions"])
    bounds = tuple(optimize.invert_effective_capacity(params, qos, mu) for mu in mus)
    boundary = optimize.find_theta_threshold(params, *gen.THETA_SEARCH)
    sweeps = {q: optimize.sweep(params, list(gen.SWEEP_THETAS), gen.SWEEP_RANGE, q,
                                gen.SWEEP_STEPS)
              for q in gen.SWEEP_QUANTITIES}
    return {"optima": optima, "mus": mus, "bounds": bounds, "boundary": boundary,
            "sweeps": sweeps}


def analyze_point(op: dict) -> analysis.AnalysisResult:
    params = system_params(op["link"])
    return analysis.analyze(params, analysis.QosSpec(theta=op["theta"]), op["gamma0"])


def quadrature(op: dict) -> dict:
    """One (link, theta) question by quadrature, for any m: the EE curve,
    the threshold that still carries mu, and the mean rate there."""
    params = system_params(op["link"])
    qos = analysis.QosSpec(theta=op["theta"])
    exact = analysis.METHOD_EXACT
    curve = [analysis.energy_efficiency(params, qos, g, exact) for g in gen.curve_gammas()]
    # EE at zero threshold times the full power is the zero-threshold capacity.
    mu = op["mu_fraction"] * curve[0] * (params.circuit_power + params.tx_power)
    bound = optimize.invert_effective_capacity(params, qos, mu, method=exact)
    return {"curve": curve, "mu": mu, "bound": bound,
            "mean_rate": analysis.mean_service_rate(params, bound)}


def prepare_simulation(op: dict) -> dict:
    """Resolve a drawn link's analytic operating point: the EE-optimal
    threshold at theta and the effective capacity there as arrival rate.
    Runs once per input set, before any operation is timed."""
    if op["theta"] is None:
        return op
    params = system_params(op["link"])
    qos = analysis.QosSpec(theta=op["theta"])
    gamma0 = optimize.find_optimal_threshold(params, qos).gamma0_opt
    return {**op, "gamma0": gamma0, "mu": analysis.effective_capacity(params, qos, gamma0)}


def simulate(op: dict) -> dict:
    config = sim.SimConfig(params=system_params(op["link"]), arrival_rate=op["mu"],
                           gamma0=op["gamma0"], num_slots=gen.MC_SLOTS, seed=op["seed"],
                           delay_bound=gen.MC_DELAY_BOUND)
    return {"report": sim.run(config), "improvement": sim.improvement_vs_baseline(config)}


RUNNERS = {"solve": solve, "analyze": analyze_point, "quadrature": quadrature,
           "simulate": simulate, "cli": run_cli}


def prepare(workload: str, seed: int) -> list[dict]:
    """Generated inputs, with analytic operating points resolved."""
    ops = gen.make_inputs(workload, seed)
    if workload == "monte-carlo":
        ops = [prepare_simulation(op) for op in ops]
    return ops


def execute(op: dict):
    return RUNNERS[op["kind"]](op)
