"""Time one cold set-up: import putget and generate one workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds taken.  run.py starts this in several fresh
interpreters and reports the median as ``setup_s``.
"""
import time

_start = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports putget from the checkout)

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - _start)
