"""Time one set-up: import poisson_cs and write one workload's inputs.

    python3 perfbench/setup_probe.py <workload> <inputs-dir>

Prints the seconds taken.  run.py starts it in several fresh interpreters,
each between two import probes, and reports the median in reference
seconds as setup_s.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports poisson_cs)

inputs = Path(sys.argv[2])
inputs.mkdir(parents=True, exist_ok=True)
WORKLOADS[sys.argv[1]].prepare(inputs)
print(repr(time.perf_counter() - t0))
