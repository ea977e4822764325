"""Command-line front end.

Subcommands: analyze, optimize, theta-threshold, invert, sweep, simulate.
Configuration comes from built-in defaults (the reference link), an optional
flat key = value config file, and command-line flags, in that precedence
order. Power values accept explicit unit suffixes (43dBm, 0.1W); results are
printed as labeled fields plus CSV, or written to --out.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 infeasible input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

from .analysis import (
    METHOD_CLOSED,
    METHOD_EXACT,
    QosSpec,
    analyze,
    delay_outage_estimate,
)
from .channel import SystemParams, db_to_linear, dbm_to_watt, default_params
from .errors import (
    BracketError,
    ConfigError,
    DomainError,
    InfeasibleRateError,
    PreconditionError,
    QuadratureError,
    QueueOverflowError,
)
from .optimize import (
    SearchSettings,
    find_optimal_threshold,
    find_theta_threshold,
    invert_effective_capacity,
    sweep,
)
from .sim import SimConfig, run as run_sim

_LINK = default_params()
_SEARCH = SearchSettings()

# Reference-link and search defaults in canonical units (W, W/Hz, seconds,
# linear), taken from the library so the two cannot drift apart.
_DEFAULTS: dict[str, float | int | None] = {
    **{
        f.name: getattr(_LINK, f.name)
        for f in fields(SystemParams)
        if f.name not in ("distance_km", "path_loss")
    },
    "distance": _LINK.distance_km,
    "path_loss": None,
    "theta": None,
    "dmax": None,
    **{f.name: getattr(_SEARCH, f.name) for f in fields(SearchSettings)},
    "mu": None,
    "gamma0": None,
    "slots": 200_000,
    "seed": 1,
    "warmup": None,
}

_POWER_KEYS = {"tx_power", "circuit_power", "idle_power"}
_INT_KEYS = {"max_iterations", "slots", "seed", "warmup"}


def _parse_value(key: str, text: str) -> float | int:
    """Parse one config value, honoring unit suffixes for power-like keys."""
    raw = text.strip()
    low = raw.lower().replace(" ", "")
    try:
        if key in _POWER_KEYS:
            if low.endswith("dbm"):
                return dbm_to_watt(float(low[:-3]))
            if low.endswith("w"):
                return float(low[:-1])
            return float(low)
        if key == "noise_density":
            if low.endswith("dbm/hz"):
                return dbm_to_watt(float(low[:-6]))
            if low.endswith("w/hz"):
                return float(low[:-4])
            return float(low)
        if key == "path_loss":
            if low.endswith("db"):
                return db_to_linear(float(low[:-2]))
            return float(low)
        if key in _INT_KEYS:
            return int(low)
        return float(low)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r}") from exc


def _read_config_file(path: str) -> dict[str, float | int]:
    out: dict[str, float | int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, rawline in enumerate(lines, start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {rawline.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _parse_value(key, value)
    return out


@dataclass
class RunConfig:
    """Merged effective configuration."""

    values: dict[str, float | int | None]

    def get(self, key: str) -> float | int | None:
        return self.values[key]

    def require(self, key: str, flag: str) -> float:
        value = self.values[key]
        if value is None:
            raise ConfigError(f"{flag} is required for this command")
        return value

    def system_params(self) -> SystemParams:
        v = self.values
        distance = v["distance"]
        path_loss = v["path_loss"]
        if path_loss is not None:
            distance = None  # an explicit path loss replaces the distance
        return SystemParams(
            slot_duration=v["slot_duration"],
            bandwidth=v["bandwidth"],
            noise_density=v["noise_density"],
            tx_power=v["tx_power"],
            circuit_power=v["circuit_power"],
            idle_power=v["idle_power"],
            fading_m=v["fading_m"],
            distance_km=distance,
            path_loss=path_loss,
        )

    def search_settings(self) -> SearchSettings:
        v = self.values
        return SearchSettings(
            epsilon=v["epsilon"],
            gamma0_lower=v["gamma0_lower"],
            gamma0_cap=v["gamma0_cap"],
            max_iterations=int(v["max_iterations"]),
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# effective configuration (canonical units: W, W/Hz, s, linear)\n")
            for key in _DEFAULTS:
                value = self.values[key]
                if value is None:
                    continue
                fh.write(f"{key} = {value!r}\n")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values: dict[str, float | int | None] = dict(_DEFAULTS)
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        if "path_loss" in file_values and "distance" in file_values:
            raise ConfigError("supply only one of distance / path_loss")
        values.update(file_values)
        if "path_loss" in file_values:
            values["distance"] = None
    flagged = set()
    for key in _DEFAULTS:
        flag_value = getattr(args, f"opt_{key}", None)
        if flag_value is not None:
            values[key] = _parse_value(key, flag_value)
            flagged.add(key)
    # A geometry flag replaces whichever of the pair an earlier layer set.
    if "path_loss" in flagged and "distance" in flagged:
        raise ConfigError("supply only one of distance / path_loss")
    if "path_loss" in flagged:
        values["distance"] = None
    elif "distance" in flagged:
        values["path_loss"] = None
    return RunConfig(values=values)


def _effective_config(args: argparse.Namespace) -> RunConfig:
    cfg = _merge_config(args)
    if getattr(args, "dump_config", None):
        cfg.dump(args.dump_config)
    return cfg


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _emit(rows: list[dict], args: argparse.Namespace) -> None:
    """Print labeled fields for a single row, then CSV; write --out if set."""
    if len(rows) == 1:
        for key, value in rows[0].items():
            print(f"{key} = {_fmt(value)}")
    header = ",".join(rows[0].keys())
    csv_lines = [header] + [",".join(_fmt(v) for v in row.values()) for row in rows]
    csv_text = "\n".join(csv_lines) + "\n"
    if getattr(args, "json", False):
        payload = json.dumps(rows[0] if len(rows) == 1 else rows, indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        else:
            print(payload)
        return
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        print(csv_text, end="")


def _cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    params = cfg.system_params()
    qos = QosSpec(theta=cfg.require("theta", "--theta"), delay_bound=cfg.get("dmax"))
    gamma0 = cfg.require("gamma0", "--gamma0")
    method = METHOD_EXACT if args.exact else METHOD_CLOSED
    result = analyze(params, qos, gamma0, method=method)
    row = {
        "theta": qos.theta,
        "gamma0": result.gamma0,
        "effective_capacity_bps": result.effective_capacity,
        "p_tr": result.p_tr,
        "p_idle": result.p_idle,
        "total_power_w": result.total_power,
        "ee_bits_per_joule": result.ee,
        "service_mgf": result.service_mgf,
        "ee_trend": result.ee_trend,
        "log_mgf": result.log_mgf,
    }
    _emit([row], args)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    params = cfg.system_params()
    qos = QosSpec(theta=cfg.require("theta", "--theta"))
    result = find_optimal_threshold(params, qos, cfg.search_settings())
    row = {
        "theta": qos.theta,
        "regime": result.regime.value,
        "gamma0_opt": result.gamma0_opt,
        "ee_opt_bits_per_joule": result.ee_opt,
        "ee_baseline_bits_per_joule": result.ee_baseline,
        "iterations": result.iterations,
        "bracket_lower": result.bracket[0],
        "bracket_upper": result.bracket[1],
    }
    _emit([row], args)
    return 0


def _cmd_theta_threshold(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    params = cfg.system_params()
    value = find_theta_threshold(
        params, args.theta_lo, args.theta_hi, cfg.search_settings()
    )
    _emit([{"theta_thr": value}], args)
    return 0


def _cmd_invert(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    params = cfg.system_params()
    qos = QosSpec(theta=cfg.require("theta", "--theta"))
    mu = cfg.require("mu", "--mu")
    gamma0 = invert_effective_capacity(params, qos, mu, cfg.search_settings())
    _emit([{"theta": qos.theta, "mu_bps": mu, "gamma0_bound": gamma0}], args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    params = cfg.system_params()
    try:
        thetas = [float(t) for t in args.theta_list.split(",") if t.strip()]
        lo, _, hi = args.gamma0_range.partition(":")
        gamma0_range = (float(lo), float(hi))
    except ValueError as exc:
        raise ConfigError(f"bad sweep range: {exc}") from exc
    method = METHOD_EXACT if args.exact else METHOD_CLOSED
    rows = sweep(params, thetas, gamma0_range, args.quantity, args.steps, method=method)
    table = [
        {"theta": theta, "gamma0": gamma0, args.quantity: value}
        for theta, gamma0, value in rows
    ]
    _emit(table, args)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    params = cfg.system_params()
    warmup = cfg.get("warmup")
    sim = SimConfig(
        params=params,
        arrival_rate=cfg.require("mu", "--mu"),
        gamma0=cfg.require("gamma0", "--gamma0"),
        num_slots=int(cfg.get("slots")),
        seed=int(cfg.get("seed")),
        delay_bound=cfg.get("dmax"),
        warmup_slots=int(warmup) if warmup is not None else None,
    )
    report = run_sim(sim)
    row = {
        "mu_bps": sim.arrival_rate,
        "gamma0": sim.gamma0,
        "slots": report.slots_run,
        "seed": report.seed,
        "empirical_ee_bits_per_joule": report.empirical_ee,
        "p_tr_hat": report.p_tr_hat,
        "p_idle_hat": report.p_idle_hat,
        "p_b_hat": report.p_b_hat,
        "delay_outage_hat": report.delay_outage_hat,
        "mean_queue_bits": report.mean_queue,
        "max_queue_bits": report.max_queue,
        "mean_power_w": report.mean_power,
    }
    theta = cfg.get("theta")
    if sim.delay_bound is not None and theta is not None:
        # Tail estimate alongside the direct measurement; the per-second
        # exponent for a constant-rate source at capacity is theta * mu.
        qos = QosSpec(theta=theta, delay_bound=sim.delay_bound)
        row["delay_outage_estimate"] = delay_outage_estimate(
            qos, report.p_b_hat, theta * sim.arrival_rate
        )
    _emit([row], args)
    return 0


def _add_common_options(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--config", help="flat key = value configuration file")
    group.add_argument(
        "--paper-defaults",
        action="store_true",
        help="pin the built-in reference-link parameters and epsilon = 1e-8 "
        "(these are also the defaults; the flag refuses a config file)",
    )
    sub.add_argument("--out", help="write CSV (or JSON with --json) to this file")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    sub.add_argument("--dump-config", help="write the effective configuration to this file")
    for key in _DEFAULTS:
        sub.add_argument(f"--{key.replace('_', '-')}", dest=f"opt_{key}", metavar="V")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eelink",
        description="Energy-efficiency analysis for threshold-gated transmission",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="analytics at one (theta, gamma0) point")
    p.add_argument("--exact", action="store_true", help="use quadrature instead of the closed form")
    _add_common_options(p)
    p.set_defaults(fn=_cmd_analyze)

    p = subs.add_parser("optimize", help="EE-optimal threshold for one theta")
    _add_common_options(p)
    p.set_defaults(fn=_cmd_optimize)

    p = subs.add_parser("theta-threshold", help="QoS-exponent regime boundary")
    p.add_argument("--theta-lo", type=float, default=1e-5)
    p.add_argument("--theta-hi", type=float, default=1e-2)
    _add_common_options(p)
    p.set_defaults(fn=_cmd_theta_threshold)

    p = subs.add_parser("invert", help="largest threshold sustaining an arrival rate")
    _add_common_options(p)
    p.set_defaults(fn=_cmd_invert)

    p = subs.add_parser("sweep", help="grid evaluation over theta and gamma0")
    p.add_argument("--theta-list", required=True, help="comma-separated theta values")
    p.add_argument("--gamma0-range", required=True, help="LO:HI")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--quantity", choices=["EE", "alpha", "G", "F"], required=True)
    p.add_argument("--exact", action="store_true")
    _add_common_options(p)
    p.set_defaults(fn=_cmd_sweep)

    p = subs.add_parser("simulate", help="Monte Carlo run of the slotted queue")
    _add_common_options(p)
    p.set_defaults(fn=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits on usage errors and --help
            return int(exc.code or 0)
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleRateError, PreconditionError) as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return 4
    except (QuadratureError, BracketError, QueueOverflowError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
