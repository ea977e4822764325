"""Scaling of measured times to a reference host speed.

This benchmark was built on a shared 2-vCPU host whose speed drifts on its
own: a fixed loop runs up to 2x slower for minutes at a time, and +-25% over
a few seconds, in CPU time as well as wall time. Two sets of runs of the
same code can then differ by more than any useful regression bound.

So a run times a fixed calibration kernel between its operations and scales
each measured time t by REFERENCE / k, where k is the median of the kernel's
last few timings and REFERENCE is the kernel's typical time on that host.
On a host of steady speed the scaled time equals the measured time up to a
constant factor near 1. When the host slows, the kernel slows with it, and
most of the drift cancels. Two kernels exist because the drift hits two
kinds of work differently:

- `python`: interpreted float arithmetic. It tracks the pure-Python
  analytics of `closed-form` and the Python integrands of
  `any-m-quadrature`.
- `numpy`: gamma draws and a cumulative sum over 4 MB arrays. It tracks
  the memory-bound simulator and fresh eelink processes, that is
  `monte-carlo` and `cli`.

Set-up probes and `cli` operations are fresh processes that mostly
import. They are scaled by the numpy kernel, which runs five times in a
fresh interpreter of its own just before each of them. That keeps the
kernel's arrays out of the measuring process's peak memory, and for `cli`,
whose children inherit that peak (see cliops.py), out of the metric.

Measured over 12 windows of 20 s with the kernels run in-process, the raw
medians moved by +-19% on closed-form, +-24% on any-m, +-12% on
monte-carlo and +-10% on cli. The scaled medians moved by +-8%, +-11%, +-3%
and +-3%. Raw times are kept in the result file.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from collections import deque

import numpy as np

SAMPLE_EVERY_S = 0.25  # at most one kernel run per this much operation time
WINDOW = 5             # kernel timings in the running median


def _python_kernel() -> float:
    total = 0.0
    for i in range(1, 20_000):
        total += math.exp(-i * 1e-5) / i
    return total


# Created once, so that no kernel timing includes the generator's set-up.
_RNG = np.random.default_rng(0)


def _numpy_kernel() -> float:
    gains = _RNG.gamma(2.0, 0.5, 500_000)
    return float(np.minimum.accumulate(np.cumsum(gains - 1.0))[-1])


# Kernel and its typical time (s) on the host the bounds were set on.
KERNELS = {"python": (_python_kernel, 4.0e-3), "numpy": (_numpy_kernel, 24.0e-3)}


class HostSpeed:
    """Running estimate of the host's speed relative to the reference."""

    def __init__(self, kernel: str, in_child: bool = False) -> None:
        self._name = kernel
        self._kernel, self._reference = KERNELS[kernel]
        self._in_child = in_child
        self._recent: deque = deque(maxlen=WINDOW)
        self._since = math.inf

    def sample(self) -> None:
        """Time the kernel once, or WINDOW times in a fresh interpreter."""
        if self._in_child:
            proc = subprocess.run([sys.executable, __file__, self._name, str(WINDOW)],
                                  capture_output=True, text=True, timeout=120, check=True)
            self._recent.extend(float(t) for t in proc.stdout.split())
        else:
            start = time.perf_counter()
            self._kernel()
            self._recent.append(time.perf_counter() - start)
        self._since = 0.0

    def before_operation(self, last_seconds: float) -> None:
        """Count the last operation's time; run the kernel when due."""
        self._since += last_seconds
        if self._since >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Multiply a measured time by this to get a reference-speed time."""
        return self._reference / statistics.median(self._recent)


if __name__ == "__main__":
    # python3 hostspeed.py KERNEL COUNT: print COUNT timings of the kernel.
    run_kernel = KERNELS[sys.argv[1]][0]
    timings = []
    for _ in range(int(sys.argv[2])):
        start = time.perf_counter()
        run_kernel()
        timings.append(time.perf_counter() - start)
    print(*timings)
