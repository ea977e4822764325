"""The `cli` workload's operation: one fresh `python -m eelink.cli` process.

This module does not import eelink. The `cli` run measures the peak memory
of its child processes, and on Linux a child's peak starts from its
parent's resident size at the moment it is spawned: vfork and fork share or
copy the parent's memory until exec, and exec records that memory's high-water
mark. So the process that spawns the CLI must stay smaller than the CLI
itself, and it must not load eelink, scipy or large arrays.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def cli_argv(op: dict) -> list[str]:
    """Arguments of one `eelink` call; every call pins the reference link."""
    sub = op["sub"]
    tail = ["--paper-defaults", "--json"]
    if sub in ("analyze", "analyze_exact"):
        args = ["analyze", "--theta", repr(op["theta"]), "--gamma0", repr(op["gamma0"])]
        return args + (["--exact"] if sub == "analyze_exact" else []) + tail
    if sub == "optimize":
        return ["optimize", "--theta", repr(op["theta"])] + tail
    if sub == "theta-threshold":
        return ["theta-threshold", "--theta-lo", repr(op["theta_lo"]),
                "--theta-hi", repr(op["theta_hi"])] + tail
    if sub == "invert":
        return ["invert", "--theta", repr(op["theta"]), "--mu", repr(op["mu"])] + tail
    if sub == "sweep":
        return ["sweep", "--theta-list", ",".join(repr(t) for t in op["thetas"]),
                "--gamma0-range", "0:3", "--steps", str(op["steps"]),
                "--quantity", op["quantity"]] + tail
    if sub == "simulate":
        return ["simulate", "--mu", repr(op["mu"]), "--gamma0", repr(op["gamma0"]),
                "--slots", str(gen.CLI_SIM_SLOTS), "--seed", str(op["seed"]),
                "--dmax", repr(gen.MC_DELAY_BOUND), "--theta", "1e-4"] + tail
    raise ValueError(f"unknown subcommand {sub!r}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class CliError(RuntimeError):
    """An eelink subprocess exited with a nonzero code."""


def run_cli(op: dict) -> dict | list:
    """One fresh `python -m eelink.cli` process; returns its JSON output."""
    proc = subprocess.run([sys.executable, "-m", "eelink.cli", *cli_argv(op)],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise CliError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    # A single-row result is printed as labeled fields before the JSON.
    lines = proc.stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(("{", "[")))
    return json.loads("\n".join(lines[start:]))


def prepare(workload: str, seed: int) -> list[dict]:
    return gen.make_inputs(workload, seed)


def execute(op: dict):
    return run_cli(op)
