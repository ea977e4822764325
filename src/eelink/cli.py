"""Command-line front end.

Configuration comes from built-in defaults (the reference link), an optional
flat key = value config file, and command-line flags, in that precedence
order. A config file accepts every key. Each subcommand takes as flags,
spelled in full, the link keys (the SystemParams fields) and the run keys it
reads:

    analyze   --theta --gamma0    invert                  --theta --mu
    optimize  --theta             theta-threshold, sweep  none
    simulate  --theta --dmax --mu --gamma0 --slots --seed --warmup

simulate reads --theta only with --dmax, for delay_outage_estimate. Power
values accept explicit unit suffixes (43dBm, 0.1W). Results are CSV, a single
row preceded on stdout by its labeled key = value fields; with --json they
are one JSON document and nothing else. --out writes the CSV or JSON to a
file instead of stdout.

Exit codes: 0 success, 2 configuration or domain error, 3 numerical failure,
4 infeasible input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import partial
from typing import Callable

from .analysis import (
    METHOD_CLOSED,
    METHOD_EXACT,
    QUANTITIES,
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
from .optimize import find_optimal_threshold, find_theta_threshold, invert_effective_capacity, sweep
from .sim import SimConfig, run as run_sim

_LINK = default_params()


def _key(field_name: str) -> str:
    """The config key of a SystemParams field."""
    return "distance" if field_name == "distance_km" else field_name


# Reference-link defaults in canonical units (W, W/Hz, seconds, linear),
# taken from the library so the two cannot drift apart.
_LINK_KEYS = tuple(_key(f.name) for f in fields(SystemParams))  # flags of every subcommand
_DEFAULTS: dict[str, float | int | None] = {
    **{_key(f.name): getattr(_LINK, f.name) for f in fields(SystemParams)},
    "path_loss": None,  # the reference link is fixed by its distance
    "theta": None,
    "dmax": None,
    "mu": None,
    "gamma0": None,
    "slots": 200_000,
    "seed": 1,
    "warmup": None,
}


def _scaled(to_canonical: Callable[[float], float]) -> Callable[[str], float]:
    return lambda number: to_canonical(float(number))


_POWER = (("dbm", _scaled(dbm_to_watt)), ("w", float))
_INT = (("", int),)
# Accepted unit suffixes per key, lower case, each with the parser of the
# number before it (the empty suffix is a bare number). A key not listed
# takes a bare float in canonical units.
_UNITS: dict[str, tuple[tuple[str, Callable[[str], float | int]], ...]] = {
    "noise_density": (("dbm/hz", _scaled(dbm_to_watt)), ("w/hz", float)),
    "tx_power": _POWER,
    "circuit_power": _POWER,
    "idle_power": _POWER,
    "path_loss": (("db", _scaled(db_to_linear)),),
    "slots": _INT,
    "seed": _INT,
    "warmup": _INT,
}


def _parse_value(key: str, text: str) -> float | int:
    """Parse one config value by the first unit suffix it ends with."""
    low = text.strip().lower().replace(" ", "")
    units = _UNITS.get(key, ()) + (("", float),)
    suffix, parse = next(unit for unit in units if low.endswith(unit[0]))
    try:
        return parse(low[: len(low) - len(suffix)])
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r}") from exc


def _read_config_file(path: str) -> dict[str, float | int]:
    out: dict[str, float | int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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


def _overlay(values: dict, layer: dict) -> None:
    """Set the keys of one configuration layer over the values below it. The
    link geometry is one choice: a layer's path loss replaces the distance
    set below it, and its distance replaces the path loss."""
    if "path_loss" in layer and "distance" in layer:
        raise ConfigError("supply only one of distance / path_loss")
    values.update(layer)
    if "path_loss" in layer:
        values["distance"] = None
    elif "distance" in layer:
        values["path_loss"] = None


def _config(args: argparse.Namespace) -> dict[str, float | int | None]:
    """The effective configuration: defaults, then the config file, then the
    flags; written to --dump-config when given."""
    values = dict(_DEFAULTS)
    if args.config:
        _overlay(values, _read_config_file(args.config))
    flags = {key: getattr(args, f"opt_{key}", None) for key in _DEFAULTS}
    _overlay(values, {k: _parse_value(k, v) for k, v in flags.items() if v is not None})
    if args.dump_config:
        lines = ["# effective configuration (canonical units: W, W/Hz, s, linear)"]
        lines += [f"{key} = {value!r}" for key, value in values.items() if value is not None]
        _write(args.dump_config, "\n".join(lines) + "\n")
    return values


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _params(cfg: dict) -> SystemParams:
    """The SystemParams of the configuration."""
    return SystemParams(**{f.name: cfg[_key(f.name)] for f in fields(SystemParams)})


def _require(cfg: dict, key: str) -> float:
    if cfg[key] is None:
        raise ConfigError(f"--{key} is required for this command")
    return cfg[key]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _emit(rows: list[dict], args: argparse.Namespace) -> None:
    """Write the rows to --out or stdout: as JSON with --json, else as CSV,
    which a single row precedes on stdout with its labeled fields. The file
    is written first, so a failed write prints nothing."""
    if args.json:
        text = json.dumps(rows[0] if len(rows) == 1 else rows, indent=2) + "\n"
    else:
        lines = [",".join(rows[0])] + [",".join(_fmt(v) for v in row.values()) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    if not args.json and len(rows) == 1:
        for key, value in rows[0].items():
            print(f"{key} = {_fmt(value)}")
    if not args.out:
        print(text, end="")


def _cmd_analyze(args: argparse.Namespace, cfg: dict, params: SystemParams) -> list[dict]:
    qos = QosSpec(theta=_require(cfg, "theta"))
    method = METHOD_EXACT if args.exact else METHOD_CLOSED
    result = analyze(params, qos, _require(cfg, "gamma0"), method=method)
    return [{
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
    }]


def _cmd_optimize(args: argparse.Namespace, cfg: dict, params: SystemParams) -> list[dict]:
    qos = QosSpec(theta=_require(cfg, "theta"))
    result = find_optimal_threshold(params, qos)
    return [{
        "theta": qos.theta,
        "regime": result.regime.value,
        "gamma0_opt": result.gamma0_opt,
        "ee_opt_bits_per_joule": result.ee_opt,
        "ee_baseline_bits_per_joule": result.ee_baseline,
        "iterations": result.iterations,
        "bracket_lower": result.bracket[0],
        "bracket_upper": result.bracket[1],
    }]


def _cmd_theta_threshold(args: argparse.Namespace, cfg: dict, params: SystemParams) -> list[dict]:
    return [{"theta_thr": find_theta_threshold(params, args.theta_lo, args.theta_hi)}]


def _cmd_invert(args: argparse.Namespace, cfg: dict, params: SystemParams) -> list[dict]:
    qos = QosSpec(theta=_require(cfg, "theta"))
    mu = _require(cfg, "mu")
    gamma0 = invert_effective_capacity(params, qos, mu)
    return [{"theta": qos.theta, "mu_bps": mu, "gamma0_bound": gamma0}]


def _cmd_sweep(args: argparse.Namespace, cfg: dict, params: SystemParams) -> list[dict]:
    try:
        thetas = [float(t) for t in args.theta_list.split(",") if t.strip()]
        lo, _, hi = args.gamma0_range.partition(":")
        gamma0_range = (float(lo), float(hi))
    except ValueError as exc:
        raise ConfigError(f"bad sweep range: {exc}") from exc
    method = METHOD_EXACT if args.exact else METHOD_CLOSED
    rows = sweep(params, thetas, gamma0_range, args.quantity, args.steps, method=method)
    return [
        {"theta": theta, "gamma0": gamma0, args.quantity: value}
        for theta, gamma0, value in rows
    ]


def _cmd_simulate(args: argparse.Namespace, cfg: dict, params: SystemParams) -> list[dict]:
    sim = SimConfig(
        params=params,
        arrival_rate=_require(cfg, "mu"),
        gamma0=_require(cfg, "gamma0"),
        num_slots=cfg["slots"],
        seed=cfg["seed"],
        delay_bound=cfg["dmax"],
        warmup_slots=cfg["warmup"],
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
    if sim.delay_bound is not None and cfg["theta"] is not None:
        # Tail estimate alongside the direct measurement; the per-second
        # exponent for a constant-rate source at capacity is theta * mu.
        qos = QosSpec(theta=cfg["theta"])
        row["delay_outage_estimate"] = delay_outage_estimate(
            report.p_b_hat, qos.theta * sim.arrival_rate, sim.delay_bound
        )
    return [row]


def _add_options(sub: argparse.ArgumentParser, fn: Callable, *run_keys: str) -> None:
    """Set fn to run sub, with the shared options and flags for the link keys and run_keys."""
    sub.set_defaults(fn=fn, subparser=sub)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--config", help="flat key = value configuration file")
    group.add_argument(
        "--paper-defaults",
        action="store_true",
        help="refuse a config file, so only the built-in defaults (the reference "
        "link) and the flags apply",
    )
    sub.add_argument("--out", help="write CSV (or JSON with --json) to this file")
    sub.add_argument("--json", action="store_true", help="emit one JSON document and nothing else")
    sub.add_argument("--dump-config", help="write the effective configuration to this file")
    for key in (*_LINK_KEYS, *run_keys):
        sub.add_argument(f"--{key.replace('_', '-')}", dest=f"opt_{key}", metavar="V")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eelink",
        description="Energy-efficiency analysis for threshold-gated transmission",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    add = partial(subs.add_parser, allow_abbrev=False)  # a prefix could name another flag
    p = add("analyze", help="analytics at one (theta, gamma0) point")
    p.add_argument("--exact", action="store_true",
                   help="use the exact kernel (series or quadrature) instead of the closed form")
    _add_options(p, _cmd_analyze, "theta", "gamma0")

    p = add("optimize", help="EE-optimal threshold for one theta")
    _add_options(p, _cmd_optimize, "theta")

    p = add("theta-threshold", help="QoS-exponent regime boundary")
    p.add_argument("--theta-lo", type=float, default=1e-5)
    p.add_argument("--theta-hi", type=float, default=1e-2)
    _add_options(p, _cmd_theta_threshold)

    p = add("invert", help="largest threshold sustaining an arrival rate")
    _add_options(p, _cmd_invert, "theta", "mu")

    p = add("sweep", help="grid evaluation over theta and gamma0")
    p.add_argument("--theta-list", required=True, help="comma-separated theta values")
    p.add_argument("--gamma0-range", required=True, help="LO:HI")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--quantity", choices=QUANTITIES, required=True)
    p.add_argument("--exact", action="store_true")
    _add_options(p, _cmd_sweep)

    p = add("simulate", help="Monte Carlo run of the slotted queue")
    _add_options(p, _cmd_simulate, "theta", "dmax", "mu", "gamma0", "slots", "seed", "warmup")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args, unread = parser.parse_known_args(argv)
            if unread:  # with the subcommand's usage, which lists the flags it takes
                args.subparser.error(f"unrecognized arguments: {' '.join(unread)}")
        except SystemExit as exc:  # argparse exits on usage errors and --help
            return int(exc.code or 0)
        cfg = _config(args)
        _emit(args.fn(args, cfg, _params(cfg)), args)
        return 0
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
