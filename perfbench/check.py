"""Checks of eelink's outputs against the oracle and against properties the
method must have. No check compares with a stored copy of eelink's output.

Each `check_<kind>` takes the generated input of one operation and what
eelink returned for it, and reports every disagreement to a `Report`.
"""

from __future__ import annotations

import math

import gen
import oracle

# Binomial bounds on simulated transmit frequencies: five standard errors,
# so a correct simulator trips a bound about once in two million checks.
Z_BINOMIAL = 5.0
# Closed form against exact quadrature at an optimum: the closed form drops
# the 1 in (1 + snr g)^a, which at the drawn links' mean SNR moves EE by
# at most a few 1e-4 (1e-3 at m = 1, gamma0 = 0).
CLOSED_VS_EXACT = 1e-2
# The optimum is the root of eelink's trend indicator, which pairs the closed
# form with the exact kernel (1 + snr g0)^a; that root sits up to about 1e-3
# from the closed-form EE's argmax, where EE is within 3e-7 of its maximum.
# So the check is that no threshold 0.05 away beats the optimum by more than
# 1e-6, which still catches an optimum off by about 1e-2.
NEAR_OPTIMUM_STEP = 0.05
NEAR_OPTIMUM_LOSS = 1e-6


class Report:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def close(self, what: str, value: float, ref: float, rtol: float, atol: float = 0.0) -> None:
        ok = math.isfinite(value) and abs(value - ref) <= rtol * abs(ref) + atol
        self.expect(ok, f"{what}: got {value!r}, reference {ref!r} (rtol {rtol:g})")


def single_peak(values: list[float]) -> bool:
    """Rises (or stays) then falls: at most one switch from up to down."""
    steps = [b - a for a, b in zip(values, values[1:])]
    falling = False
    for s in steps:
        if s < 0.0:
            falling = True
        elif s > 0.0 and falling:
            return False
    return True


def single_crossing(values: list[float]) -> bool:
    """Positive then negative, with at most one sign change."""
    signs = [v > 0.0 for v in values]
    return all(not (later and not earlier) for earlier, later in zip(signs, signs[1:]))


def binomial_ok(p_hat: float, p: float, n: int) -> bool:
    sigma = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
    return abs(p_hat - p) <= Z_BINOMIAL * sigma


def check_analysis(rep: Report, where: str, link: oracle.Link, theta: float,
                   res, method: str = "closed") -> None:
    """Every field of one analysis result (eelink AnalysisResult or the
    CLI's JSON row as an object with the same attribute names)."""
    g = res.gamma0
    rep.close(f"{where} p_tr", res.p_tr, link.tail(g), 1e-10, 1e-300)
    rep.close(f"{where} p_tr + p_idle", res.p_tr + res.p_idle, 1.0, 1e-15)
    rep.close(f"{where} power", res.total_power, link.power(g), 1e-12)
    if method == "closed":
        rep.close(f"{where} log_mgf", res.log_mgf, link.log_mgf_closed(theta, g), 1e-9, 1e-300)
        rep.close(f"{where} service_mgf", res.service_mgf, math.exp(res.log_mgf), 1e-12)
        trend, scale = link.trend_closed(theta, g)
        rep.close(f"{where} ee_trend", res.ee_trend, trend, 0.0, 1e-9 * scale)
    else:
        rep.close(f"{where} log_mgf", res.log_mgf, link.log_mgf_exact(theta, g), 1e-7, 1e-300)
    rep.close(f"{where} capacity", res.effective_capacity,
              -res.log_mgf / (theta * gen.SLOT_DURATION), 1e-12, 1e-300)
    rep.close(f"{where} ee", res.ee, res.effective_capacity / res.total_power, 1e-12, 1e-300)
    rep.expect(res.effective_capacity <= link.mean_rate(g) * (1.0 + 1e-9),
               f"{where}: capacity above the mean service rate")


def check_optimum(rep: Report, where: str, link: oracle.Link, theta: float, best,
                  boundary: float) -> None:
    rep.close(f"{where} ee_baseline", best.ee_baseline, link.ee_closed(theta, 0.0), 1e-9)
    gated = best.regime == "gated"
    if abs(math.log(theta / boundary)) > 1e-2:
        rep.expect(gated == (theta < boundary),
                   f"{where}: regime {best.regime} disagrees with boundary {boundary:.6e}")
    if not gated:
        rep.expect(best.gamma0_opt == 0.0 and best.ee_opt == best.ee_baseline,
                   f"{where}: ungated optimum is not the zero threshold")
        return
    g = best.gamma0_opt
    ee = link.ee_closed(theta, g)
    rep.close(f"{where} ee_opt", best.ee_opt, ee, 1e-9)
    for probe in (max(g - NEAR_OPTIMUM_STEP, 0.0), g + NEAR_OPTIMUM_STEP):
        rep.expect(link.ee_closed(theta, probe) <= ee * (1.0 + NEAR_OPTIMUM_LOSS),
                   f"{where}: EE at {probe:.6f} exceeds EE at the optimum {g:.6f}")
    exact = link.ee_exact(theta, g)
    rep.expect(ee <= exact * (1.0 + 1e-9) and exact - ee <= CLOSED_VS_EXACT * exact,
               f"{where}: closed form {ee!r} vs quadrature {exact!r}")


def check_solve(rep: Report, op: dict, out: dict) -> None:
    link = oracle.Link(op["link"])
    reference = op["mu"] is not None
    boundary = out["boundary"]
    rep.expect(gen.THETA_SEARCH[0] < boundary < gen.THETA_SEARCH[1], f"boundary {boundary}")
    if reference:
        rep.close("reference boundary", boundary, oracle.PAPER_BOUNDARY, 1e-2)
    table = {row[0]: row[1:] for row in oracle.PAPER_TABLE}
    for theta, best, res in out["optima"]:
        where = f"solve theta={theta:g}"
        check_optimum(rep, where, link, theta, _Optimum(best), boundary)
        check_analysis(rep, f"{where} analyze", link, theta, res)
        rep.expect(res.gamma0 == best.gamma0_opt, f"{where}: analyze at another threshold")
        if reference and theta in table:
            g_ref, ee_ref, ee0_ref = table[theta]
            rep.close(f"{where} paper threshold", best.gamma0_opt, g_ref, 0.0, 1e-3)
            rep.close(f"{where} paper EE", best.ee_opt, ee_ref, 5e-3)
            rep.close(f"{where} paper baseline EE", best.ee_baseline, ee0_ref, 5e-3)
    theta = gen.INVERT_THETA
    for mu, bound in zip(out["mus"], out["bounds"]):
        where = f"invert mu={mu:.6g}"
        rep.close(f"{where} capacity at bound", link.capacity_closed(theta, bound), mu, 1e-6)
        rep.expect(link.capacity_closed(theta, max(bound - 1e-3, 0.0)) >= mu
                   >= link.capacity_closed(theta, bound + 1e-3),
                   f"{where}: capacity not non-increasing around the bound")
    if reference:
        for (mu, g_ref), bound in zip(oracle.PAPER_INVERSION, out["bounds"]):
            rep.close(f"invert mu={mu:g} paper bound", bound, g_ref, 0.0, 1e-2)
    check_sweeps(rep, link, out["sweeps"])


def check_sweeps(rep: Report, link: oracle.Link, sweeps: dict) -> None:
    lo, hi = gen.SWEEP_RANGE
    n = gen.SWEEP_STEPS
    for quantity, rows in sweeps.items():
        rep.expect(len(rows) == n * len(gen.SWEEP_THETAS), f"sweep {quantity}: {len(rows)} rows")
        for i, theta in enumerate(gen.SWEEP_THETAS):
            part = rows[i * n:(i + 1) * n]
            rep.expect(all(r[0] == theta for r in part), f"sweep {quantity}: theta order")
            values = [r[2] for r in part]
            for j in range(0, n, 4):
                check_quantity(rep, f"sweep {quantity} theta={theta:g}", link, theta,
                               part[j][1], quantity, values[j])
            if quantity == "EE":
                rep.expect(single_peak(values), f"sweep EE theta={theta:g}: more than one peak")
            elif quantity == "F":
                rep.expect(all(0.0 < a < b <= 1.0 for a, b in zip(values, values[1:])),
                           f"sweep F theta={theta:g}: not increasing in (0, 1]")
            elif quantity == "G":
                rep.expect(single_crossing(values), f"sweep G theta={theta:g}: sign changes")
        gammas = [r[1] for r in rows[:n]]
        rep.expect(abs(gammas[0] - lo) < 1e-12 and abs(gammas[-1] - hi) < 1e-12,
                   f"sweep {quantity}: grid ends")


def check_quantity(rep: Report, where: str, link: oracle.Link, theta: float, gamma0: float,
                   quantity: str, value: float) -> None:
    where = f"{where} gamma0={gamma0:.4f}"
    if quantity == "EE":
        rep.close(where, value, link.ee_closed(theta, gamma0), 1e-9)
    elif quantity == "alpha":
        rep.close(where, value, link.capacity_closed(theta, gamma0), 1e-9)
    elif quantity == "F":
        rep.close(where, value, math.exp(link.log_mgf_closed(theta, gamma0)), 1e-12)
    elif quantity == "G":
        trend, scale = link.trend_closed(theta, gamma0)
        rep.close(where, value, trend, 0.0, 1e-9 * scale)


def check_quadrature(rep: Report, op: dict, out: dict) -> None:
    link = oracle.Link(op["link"])
    theta = op["theta"]
    where = f"m={link.m:g} theta={theta:.4g}"
    curve = out["curve"]
    capacities = []
    for g, ee in zip(gen.curve_gammas(), curve):
        rep.close(f"{where} exact EE gamma0={g:.3f}", ee, link.ee_exact(theta, g), 1e-7)
        capacities.append(ee * link.power(g))
    rep.expect(all(b <= a * (1.0 + 1e-9) for a, b in zip(capacities, capacities[1:])),
               f"{where}: capacity increases with the threshold")
    rep.expect(single_peak(curve), f"{where}: EE curve has more than one peak")
    mu, bound = out["mu"], out["bound"]
    rep.close(f"{where} mu", mu, op["mu_fraction"] * curve[0] * (link.circuit + link.tx), 1e-12)
    rep.close(f"{where} capacity at bound", link.capacity_exact(theta, bound), mu, 1e-6)
    rep.expect(link.capacity_exact(theta, max(bound - 1e-3, 0.0)) >= mu
               >= link.capacity_exact(theta, bound + 1e-3),
               f"{where}: capacity not non-increasing around the bound")
    rep.close(f"{where} mean rate", out["mean_rate"], link.mean_rate(bound), 1e-8)
    rep.expect(mu <= out["mean_rate"], f"{where}: capacity above the mean service rate")


def check_simulation(rep: Report, where: str, link: oracle.Link, mu: float, gamma0: float,
                     report, slots: int) -> None:
    """A simulator report (eelink SimReport or CLI row as an object)."""
    n = slots - int(0.05 * slots)
    p = link.tail(gamma0)
    rep.expect(binomial_ok(report.p_tr_hat, p, n),
               f"{where}: p_tr_hat {report.p_tr_hat} outside binomial bounds of {p}")
    rep.close(f"{where} p_idle_hat", report.p_idle_hat, 1.0 - report.p_tr_hat, 0.0, 1e-15)
    power = link.circuit + link.tx * report.p_tr_hat + link.idle * report.p_idle_hat
    rep.close(f"{where} mean power", report.mean_power, power, 1e-12)
    rep.close(f"{where} empirical EE", report.empirical_ee, mu / report.mean_power, 1e-12)
    rep.expect(0.0 <= report.p_b_hat <= 1.0 and 0.0 <= report.mean_queue <= report.max_queue,
               f"{where}: queue statistics out of range")
    if report.delay_outage_hat is not None:
        rep.expect(0.0 <= report.delay_outage_hat <= report.p_b_hat,
                   f"{where}: delay outage above the backlog probability")


def check_monte_carlo(rep: Report, op: dict, out: dict) -> None:
    link = oracle.Link(op["link"])
    mu, gamma0 = op["mu"], op["gamma0"]
    where = f"simulate mu={mu:.6g} gamma0={gamma0:.4f}"
    report = out["report"]
    rep.expect(report.slots_run == gen.MC_SLOTS and report.seed == op["seed"],
               f"{where}: slots or seed not echoed")
    check_simulation(rep, where, link, mu, gamma0, report, gen.MC_SLOTS)
    full = link.circuit + link.tx
    rep.close(f"{where} improvement", out["improvement"], full / report.mean_power - 1.0, 1e-9)
    rep.expect(mu <= link.mean_rate(gamma0), f"{where}: load above the mean service rate")
    for p_mu, p_g, ee, gain, tol in oracle.PAPER_SIM:
        if (mu, gamma0) == (p_mu, p_g):
            rep.close(f"{where} paper EE", report.empirical_ee, ee, 0.02)
            rep.close(f"{where} paper gain", out["improvement"], gain, 0.0, tol)
    if op["theta"] is not None:
        rep.close(f"{where} operating rate", mu, link.capacity_closed(op["theta"], gamma0), 1e-9)


class _Row:
    """Attribute access to a CLI JSON row."""

    def __init__(self, row: dict, **renames: str) -> None:
        self.__dict__.update(row)
        for new, old in renames.items():
            setattr(self, new, row[old])


class _Optimum:
    """An OptimumResult or CLI optimize row, with the regime as a string."""

    def __init__(self, best) -> None:
        if isinstance(best, dict):
            self.regime = best["regime"]
            self.gamma0_opt = best["gamma0_opt"]
            self.ee_opt = best["ee_opt_bits_per_joule"]
            self.ee_baseline = best["ee_baseline_bits_per_joule"]
        else:
            self.regime = best.regime.value
            self.gamma0_opt, self.ee_opt, self.ee_baseline = (
                best.gamma0_opt, best.ee_opt, best.ee_baseline)


def check_cli(rep: Report, op: dict, out) -> None:
    link = oracle.reference()
    sub = op["sub"]
    where = f"cli {sub}"
    if sub in ("analyze", "analyze_exact"):
        row = _Row(out, effective_capacity="effective_capacity_bps",
                   total_power="total_power_w", ee="ee_bits_per_joule")
        rep.expect(row.gamma0 == op["gamma0"] and row.theta == op["theta"], f"{where}: echo")
        check_analysis(rep, where, link, op["theta"], row,
                       "exact" if sub == "analyze_exact" else "closed")
    elif sub == "optimize":
        check_optimum(rep, where, link, op["theta"], _Optimum(out), oracle.PAPER_BOUNDARY)
    elif sub == "theta-threshold":
        rep.close(f"{where} paper boundary", out["theta_thr"], oracle.PAPER_BOUNDARY, 1e-2)
    elif sub == "invert":
        rep.close(f"{where} capacity at bound",
                  link.capacity_closed(op["theta"], out["gamma0_bound"]), op["mu"], 1e-6)
    elif sub == "sweep":
        rows = out
        rep.expect(len(rows) == op["steps"] * len(op["thetas"]), f"{where}: row count")
        for row in rows[::3]:
            check_quantity(rep, f"{where} theta={row['theta']:g}", link, row["theta"],
                           row["gamma0"], op["quantity"], row[op["quantity"]])
    elif sub == "simulate":
        row = _Row(out, mean_power="mean_power_w", empirical_ee="empirical_ee_bits_per_joule",
                   mean_queue="mean_queue_bits", max_queue="max_queue_bits")
        rep.expect(row.slots == gen.CLI_SIM_SLOTS and row.seed == op["seed"], f"{where}: echo")
        check_simulation(rep, where, link, op["mu"], op["gamma0"], row, gen.CLI_SIM_SLOTS)


def check_output(rep: Report, op: dict, out) -> None:
    kind = op["kind"]
    if kind == "solve":
        check_solve(rep, op, out)
    elif kind == "analyze":
        check_analysis(rep, f"analyze theta={op['theta']:g} gamma0={op['gamma0']:g}",
                       oracle.Link(op["link"]), op["theta"], out)
    elif kind == "quadrature":
        check_quadrature(rep, op, out)
    elif kind == "simulate":
        check_monte_carlo(rep, op, out)
    elif kind == "cli":
        check_cli(rep, op, out)
    else:
        raise ValueError(f"no check for {kind!r}")
