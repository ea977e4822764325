"""Set-up probe: a fresh interpreter that gets a workload ready and runs its
first operation, then prints `ready` and time.monotonic(). run.py times it
from launch to that moment. For `cli` the set-up is a fresh
`import eelink.cli`.

Usage: python3 perfbench/probe.py WORKLOAD SEED
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import ops  # noqa: E402  (needs the path above; checks where eelink came from)

if sys.argv[1] == "cli":
    import eelink.cli  # noqa: E402,F401
else:
    ops.execute(ops.prepare(sys.argv[1], int(sys.argv[2]))[0])
print("ready", time.monotonic(), flush=True)
