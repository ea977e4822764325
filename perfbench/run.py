"""Benchmark for eelink: four closed-loop, single-client workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; eelink is imported from its `src`. The
inputs come from the seed (gen.py). A run repeats the workload's round of
operations until S seconds of operations have run, timing set-up in fresh
interpreters between rounds; scales the times to a reference host speed
(hostspeed.py); checks round one against the oracle, and every later round
for bit-identical results; and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
one untraced and one traced round of the named workload (for the tracing
overhead), plus a traced round of every other workload, so that each
per-layer metric is measured on the workload that drives its layer. Results
and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import cliops
import gen
from cliops import HERE, ROOT, SRC
from hostspeed import HostSpeed

OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 5
# Calibration kernel whose drift tracks each workload's operations, and
# whether it runs in a fresh interpreter (see hostspeed.py). The numpy
# kernel's arrays stay out of the peak memory of closed-form and
# any-m-quadrature, whose processes never run it.
SPEED_KERNEL = {"closed-form": ("python", False), "any-m-quadrature": ("python", False),
                "monte-carlo": ("numpy", False), "cli": ("numpy", True)}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_probe(workload: str, seed: int) -> float:
    """Wall time from launching a fresh interpreter until the workload's
    first operation has returned (for cli: until eelink.cli is imported).
    The probe prints time.monotonic() at that moment; on Linux that clock
    (CLOCK_MONOTONIC) is shared by all processes."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), workload,
                             str(seed)], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("set-up probe timed out")
    if proc.returncode != 0 or not out.startswith("ready "):
        fail(f"set-up probe failed: {err.strip()[-500:]}")
    return float(out.split()[1]) - start


class Rounds:
    """Outcome of repeating one round of operations."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # completed operations, as measured
        self.scaled: list[float] = []     # the same at reference host speed
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.elapsed = 0.0                # all operations, as measured
        self.scaled_elapsed = 0.0         # the same at reference host speed
        self.last = 0.0                   # the latest operation's time
        self.first: list = []          # round one's outputs (exceptions for failures)
        self.first_times: list = []    # round one's seconds per operation
        self.unstable: list[str] = []  # later rounds that differed from round one


def is_failure(op: dict, out) -> bool:
    """An analysis point whose fields are not finite failed, like one that raised."""
    if op["kind"] != "analyze":
        return False
    return not all(math.isfinite(v) for v in (out.effective_capacity, out.p_tr,
                                              out.total_power, out.ee, out.log_mgf))


def run_round(ops, round_ops: list[dict], r: Rounds, label: str,
              speed: HostSpeed | None = None) -> Rounds:
    """Run every operation of the round once, adding to r. With `speed`,
    the calibration kernel runs between operations, outside their times."""
    outputs, times = [], []
    for index, op in enumerate(round_ops):
        if speed is not None:
            speed.before_operation(r.last)
        t0 = time.perf_counter()
        try:
            out = ops.execute(op)
            failed = is_failure(op, out)
        except Exception as exc:  # a failed operation is counted, not fatal
            out, failed = exc, True
        t1 = time.perf_counter()
        r.last = t1 - t0
        scaled = r.last * (speed.factor() if speed is not None else 1.0)
        r.attempted += 1
        r.elapsed += r.last
        r.scaled_elapsed += scaled
        if failed:
            r.failed += 1
        else:
            r.latencies.append(r.last)
            r.scaled.append(scaled)
        outputs.append(out)
        times.append(r.last)
        if failed and not r.first:
            print(f"perfbench: {label} op {index} failed: {type(out).__name__}: {out}",
                  file=sys.stderr)
    if not r.first:
        r.first, r.first_times = outputs, times
    elif [_fingerprint(o) for o in outputs] != [_fingerprint(o) for o in r.first]:
        r.unstable.append(f"{label} round {r.rounds} differs from round one")
    r.rounds += 1
    return r


def _fingerprint(out) -> str:
    if isinstance(out, BaseException):
        return f"{type(out).__name__}: {out}"
    return repr(out)


def check_round(round_ops: list[dict], outputs: list, label: str) -> list[str]:
    """Oracle checks of one round's successful outputs."""
    # Imported only after all timing, so the oracle's imports (mpmath,
    # scipy.optimize) stay out of set-up time and peak memory.
    import check

    errors = []
    for index, (op, out) in enumerate(zip(round_ops, outputs)):
        if isinstance(out, BaseException) or is_failure(op, out):
            continue
        rep = check.Report()
        check.check_output(rep, op, out)
        errors += [f"{label} op {index}: {e}" for e in rep.errors]
    return errors


def peak_rss_mb(workload: str) -> float:
    # For cli: the largest child, which cliops keeps above the spawner's size.
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Whole rounds until `seconds` of operations have run. The set-up
    probes are spread over the run, between rounds, because this host's
    speed drifts over periods of a few seconds. Times are reported at
    reference host speed (hostspeed.py); the result file keeps them raw."""
    if workload == "cli":
        ops = cliops  # keeps eelink out of the process that spawns the CLI
    else:
        import ops

    round_ops = ops.prepare(workload, seed)
    ops.execute(round_ops[0])  # warm-up: lazy imports and first-call costs
    speed = HostSpeed(*SPEED_KERNEL[workload])
    setup_speed = HostSpeed("numpy", in_child=True)
    setups: list[tuple[float, float]] = []

    def probe() -> None:
        setup_speed.sample()
        raw = setup_probe(workload, seed)
        setups.append((raw, raw * setup_speed.factor()))

    marks = [seconds * i / (SETUP_PROBES - 1) for i in range(1, SETUP_PROBES)]
    probe()
    r = Rounds()
    while True:
        run_round(ops, round_ops, r, workload, speed)
        while marks and r.elapsed >= marks[0]:
            marks.pop(0)
            probe()
        if not marks:
            break
    rss = peak_rss_mb(workload)
    errors = r.unstable + check_round(round_ops, r.first, workload)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "ops_per_s": (len(r.scaled) / r.scaled_elapsed, "1/s"),
        "op_p50_ms": (statistics.median(r.scaled) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": len(r.latencies) / r.elapsed,
        "op_p50_ms": statistics.median(r.latencies) * 1e3,
    }
    return {"errors": errors, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
            "rounds": r.rounds, "raw": raw}


def cli_import_profile() -> dict:
    """`import eelink.cli` in a fresh interpreter under -X importtime."""
    code = ("import sys, time\n"
            "n = len(sys.modules)\n"
            "t = time.perf_counter()\n"
            "import eelink.cli\n"
            "print((time.perf_counter() - t) * 1e3, len(sys.modules) - n)\n")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          env=cliops.child_env(), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"import profile failed: {proc.stderr.strip()[-500:]}")
    import_ms, modules = proc.stdout.split()
    # scipy loads scipy.integrate lazily, so the tree has no line for the
    # package itself: add up the outermost scipy.integrate.* subtrees. Each
    # line follows its children, so walking backwards meets parents first.
    scipy_integrate_us = 0
    ancestors: list[tuple[int, str]] = []
    for line in reversed(proc.stderr.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        indent = len(name) - len(name.lstrip())
        name = name.strip()
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        if name.startswith("scipy.integrate") and not any(
                a.startswith("scipy.integrate") for _, a in ancestors):
            scipy_integrate_us += int(parts[1])
        ancestors.append((indent, name))
    return {"ms": float(import_ms), "scipy_integrate_ms": scipy_integrate_us / 1e3,
            "modules": int(modules)}


def instrument(tracer, ops) -> dict:
    """Wrap every cross-layer call; returns a dict the sim wrapper fills."""
    import tracemalloc

    from eelink import analysis, channel, optimize, sim

    def uig_order(args, kwargs):
        if args[0] < 0.0:
            tracer.extra["uig_neg"] += 1
        return args, kwargs

    def count_integrand(args, kwargs):
        f = args[0]

        def counted(x):
            tracer.extra["integrand"] += 1
            return f(x)
        return (counted, *args[1:]), kwargs

    def count_draws(args, kwargs):
        tracer.extra["gain_draws"] += args[2]
        return args, kwargs

    def count_points(args, kwargs):
        tracer.extra["sweep_points"] += len(args[1]) * args[4]
        return args, kwargs

    def point_kind(args, kwargs):
        method = args[3] if len(args) > 3 else kwargs.get("method", analysis.METHOD_CLOSED)
        return "exact_point" if method == analysis.METHOD_EXACT else "closed_point"

    tracer.wrap(ops, "execute", lambda args, kwargs: f"op.{args[0]['kind']}", span=True)
    # special, as called from channel and analysis
    tracer.wrap(channel, "upper_incomplete_gamma", "uig", on_call=uig_order)
    tracer.wrap(analysis, "upper_incomplete_gamma", "uig", on_call=uig_order)
    tracer.wrap(analysis, "integrate", "integrate", span=True, on_call=count_integrand)
    # channel, as called from within channel (cdf), analysis and sim
    tracer.wrap(channel, "tail_probability", "tail")
    tracer.wrap(analysis, "tail_probability", "tail")
    tracer.wrap(analysis, "pdf", "pdf")
    tracer.wrap(sim, "sample_gains", "sample_gains", on_call=count_draws)
    # analysis, as called from optimize, sim and the benchmark
    tracer.wrap(analysis, "log_service_mgf", point_kind)
    tracer.wrap(analysis, "ee_trend", "ee_trend")
    tracer.wrap(optimize, "ee_trend", "ee_trend")
    tracer.wrap(optimize, "effective_capacity", "capacity")
    tracer.wrap(analysis, "analyze", "analyze", span=True)
    # optimize and sim, as called from the benchmark (and sim from itself)
    for name in ("find_optimal_threshold", "find_theta_threshold",
                 "invert_effective_capacity"):
        tracer.wrap(optimize, name, name, span=True)
    tracer.wrap(optimize, "sweep", "sweep", span=True, on_call=count_points)
    tracer.wrap(sim, "run", "sim.run", span=True)

    memory = {"peak_bytes_per_slot": 0.0}
    timed_run = sim.run

    def run_with_memory(config):
        tracemalloc.start()
        try:
            tracer.extra["sim_slots"] += config.num_slots
            return timed_run(config)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            memory["peak_bytes_per_slot"] = max(memory["peak_bytes_per_slot"],
                                                peak / config.num_slots)

    tracer.replace(sim, "run", run_with_memory)
    return memory


def layer_metrics(t, memory: dict, cli_ms: dict, profile: dict, overhead_pct: float) -> dict:
    ns_per_s = 1e9
    m = {
        "special.upper_incomplete_gamma.calls": (t.calls["uig"], "count"),
        "special.upper_incomplete_gamma.us": (t.mean("uig", 1e3), "us"),
        "special.upper_incomplete_gamma.neg_order_calls": (t.extra["uig_neg"], "count"),
        "special.integrate.calls": (t.calls["integrate"], "count"),
        "special.integrate.ms": (t.mean("integrate", 1e6), "ms"),
        "special.integrate.integrand_evals": (t.extra["integrand"], "count"),
        "channel.tail_probability.calls": (t.calls["tail"], "count"),
        "channel.pdf.calls": (t.calls["pdf"], "count"),
        "channel.sample_gains.ns_per_slot": (t.ns["sample_gains"] / t.extra["gain_draws"], "ns"),
        "analysis.closed_point.us": (t.mean("closed_point", 1e3), "us"),
        "analysis.ee_trend.us": (t.mean("ee_trend", 1e3), "us"),
        "analysis.analyze.uig_calls": (t.per_call("analyze", "uig"), "count"),
        "analysis.exact_point.ms": (t.mean("exact_point", 1e6), "ms"),
        "optimize.find_optimal_threshold.ms": (t.mean("find_optimal_threshold", 1e6), "ms"),
        "optimize.find_optimal_threshold.trend_evals":
            (t.per_call("find_optimal_threshold", "ee_trend"), "count"),
        "optimize.find_theta_threshold.ms": (t.mean("find_theta_threshold", 1e6), "ms"),
        "optimize.find_theta_threshold.trend_evals":
            (t.per_call("find_theta_threshold", "ee_trend"), "count"),
        "optimize.invert_effective_capacity.ms": (t.mean("invert_effective_capacity", 1e6), "ms"),
        "optimize.invert_effective_capacity.capacity_evals":
            (t.per_call("invert_effective_capacity", "capacity"), "count"),
        "optimize.sweep.points_per_s":
            (t.extra["sweep_points"] / (t.ns["sweep"] / ns_per_s), "1/s"),
        "sim.run.ms": (t.mean("sim.run", 1e6), "ms"),
        "sim.run.slots_per_s": (t.extra["sim_slots"] / (t.ns["sim.run"] / ns_per_s), "1/s"),
        "sim.run.peak_bytes_per_slot": (memory["peak_bytes_per_slot"], "B"),
        "cli.import.ms": (profile["ms"], "ms"),
        "cli.import.scipy_integrate_ms": (profile["scipy_integrate_ms"], "ms"),
        "cli.modules_loaded": (profile["modules"], "count"),
    }
    for sub in gen.CLI_SUBCOMMANDS:
        m[f"cli.{sub}.ms"] = (cli_ms[sub], "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def measure_traced(workload: str, seed: int) -> dict:
    import ops
    from tracer import Tracer

    inputs = {w: ops.prepare(w, seed) for w in gen.WORKLOADS}
    ops.execute(inputs[workload][0])  # warm-up, as in the untraced run
    plain = run_round(ops, inputs[workload], Rounds(), workload)
    untraced_s = plain.elapsed
    tracer = Tracer()
    memory = instrument(tracer, ops)
    traced = {}
    try:
        for w in gen.WORKLOADS:
            # The named workload's traced round extends its untraced result,
            # so attempted/failed keep the untraced run's proportions.
            if w == workload:
                traced[w] = run_round(ops, inputs[w], plain, f"{w} traced")
            else:
                traced[w] = run_round(ops, inputs[w], Rounds(), f"{w} traced")
    finally:
        tracer.restore()
    profile = cli_import_profile()
    errors = list(plain.unstable)
    for w in gen.WORKLOADS:
        if w != workload:
            errors += check_round(inputs[w], traced[w].first, f"{w} traced")
            known = len(gen.FAILING_ANALYZE) if w == "closed-form" else 0
            unexpected = traced[w].failed - known
            if unexpected:
                errors.append(f"{w} traced: {unexpected} unexpected failures")
    errors += check_round(inputs[workload], plain.first, workload)
    cli_round = traced["cli"]
    if cli_round is plain:  # the untraced cli round ran first; use the traced one
        cli_times = plain.latencies[len(inputs["cli"]):]
    else:
        cli_times = cli_round.first_times
    cli_ms = {op["sub"]: t * 1e3 for op, t in zip(inputs["cli"], cli_times)}
    overhead = ((plain.elapsed - untraced_s) / untraced_s - 1.0) * 100.0
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))
    return {"errors": errors, "attempted": plain.attempted, "failed": plain.failed,
            "metrics": layer_metrics(tracer, memory, cli_ms, profile, overhead),
            "rounds": plain.rounds}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eelink", "__init__.py")):
        fail(f"no eelink sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    if args.workload not in gen.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {gen.WORKLOADS}")
    if args.trace:
        result = measure_traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    for error in result["errors"][:50]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    line = {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({**line, "rounds": result["rounds"], "raw_metrics": result.get("raw"),
                   "errors": result["errors"]}, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
