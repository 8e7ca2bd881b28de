"""Set-up probe: one fresh interpreter doing a workload's set-up.

    python3 perfbench/setup_probe.py <workload> <inputs.json>

Prints ``time.monotonic()`` once the set-up is done, that is, just before
the first step (or the first solve).  ``run.py`` subtracts the time at which
it spawned the interpreter, so the figure covers interpreter start-up,
package import and the workload's set-up.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

if __name__ == "__main__":
    _make, setup, _bench = workloads.WORKLOADS[sys.argv[1]]
    setup(workloads.load_inputs(sys.argv[2]))
    print(repr(time.monotonic()))
