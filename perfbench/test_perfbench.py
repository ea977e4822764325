"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_repeats_for_a_seed(workload):
    assert gen.make_inputs(workload, 7) == gen.make_inputs(workload, 7)
    assert gen.make_inputs(workload, 7) != gen.make_inputs(workload, 8)
    # Rounds have the same length for every seed, so failed/attempted is fixed.
    assert len(gen.make_inputs(workload, 7)) == len(gen.make_inputs(workload, 8))


def test_generator_repeats_across_processes():
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); import gen; "
            "print(json.dumps({w: gen.make_inputs(w, 3) for w in gen.WORKLOADS}))")
    outs = [subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                           text=True, check=True).stdout for _ in range(2)]
    assert outs[0] == outs[1]


def test_oracle_reproduces_the_paper_without_eelink():
    code = r"""
import sys
sys.path.insert(0, "perfbench")
import oracle
ref = oracle.reference()
for theta, g_ref, ee_ref, ee0_ref in oracle.PAPER_TABLE:
    g = ref.optimal_threshold(theta)
    assert abs(g - g_ref) <= 1e-3, (theta, g)
    assert abs(ref.ee_closed(theta, g) - ee_ref) <= 5e-3 * ee_ref, theta
    assert abs(ref.ee_closed(theta, 0.0) - ee0_ref) <= 5e-3 * ee0_ref, theta
theta, g, capacity = oracle.PAPER_CAPACITY
assert abs(ref.capacity_closed(theta, g) - capacity) <= 1e-3 * capacity
for mu, g in oracle.PAPER_INVERSION:
    assert abs(ref.invert(1e-4, mu) - g) <= 1e-2, mu
boundary = ref.regime_boundary()
assert abs(boundary - oracle.PAPER_BOUNDARY) <= 1e-2 * oracle.PAPER_BOUNDARY, boundary
for mu, g, ee, gain, tol in oracle.PAPER_SIM:
    assert abs(mu / ref.power(g) - ee) <= 0.02 * ee, mu
    assert abs((ref.circuit + ref.tx) / ref.power(g) - 1.0 - gain) <= tol, mu
assert not any(name.split(".")[0] == "eelink" for name in sys.modules)
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_drawn_links_avoid_two_peaked_ee():
    """On a link with circuit power at 0.14% of transmit power, the exact
    EE has two local maxima at theta = 8.9e-5 (README.md). Drawn links keep
    that ratio at 0.5% or more, where no second peak was found."""
    import oracle

    link = oracle.Link({"distance_km": 1.0462084924202188, "tx_power_dbm": 45.942637207302596,
                        "circuit_power": 0.05664903914268424,
                        "idle_power": 0.001814745288434738, "fading_m": 2.0})
    ee = [link.ee_exact(8.9e-5, g) for g in (0.5, 0.673, 1.0, 1.81, 2.5)]
    assert ee[0] < ee[1] > ee[2] < ee[3] > ee[4]
    for workload in gen.WORKLOADS:
        for seed in range(200):
            for op in gen.make_inputs(workload, seed):
                if "link" in op:
                    tx = 10.0 ** ((op["link"]["tx_power_dbm"] - 30.0) / 10.0)
                    assert op["link"]["circuit_power"] >= 0.005 * tx


def test_tracer_counts_repeat_and_restore():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ops
    import run
    from eelink import analysis, channel
    from tracer import Tracer

    op = ops.prepare("closed-form", 5)[1]
    original = analysis.upper_incomplete_gamma
    counts = []
    for _ in range(2):
        tracer = Tracer()
        run.instrument(tracer, ops)
        try:
            ops.execute(op)
        finally:
            tracer.restore()
        counts.append((dict(tracer.calls), dict(tracer.extra),
                       {k: dict(v) for k, v in tracer.within.items()}))
    assert counts[0] == counts[1]
    calls = counts[0][0]
    assert calls["uig"] > 0 and calls["find_theta_threshold"] == 1 and calls["tail"] > 0
    assert counts[0][1]["uig_neg"] > 0
    assert analysis.upper_incomplete_gamma is original
    assert channel.upper_incomplete_gamma is original


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _bench("--workload", "any-m-quadrature", "--seed", "1", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    printed = {name: m["unit"] for name, m in line["metrics"].items()}
    assert printed == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "closed-form", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
