"""Time one workload's set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is what ``run.py`` does before its first timed operation: import
the package from ``src/``, calibrate the families, build the workload's
inputs and make one warm-up call.
"""

import sys
import time

started = time.perf_counter()

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]), ROOT / ".perfbench_out" / "work")
print(time.perf_counter() - started)
