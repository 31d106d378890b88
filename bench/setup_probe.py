"""Time one fresh interpreter's set-up for a workload.

Set-up is importing thermosched and building the workload's inputs. Run
from the root of a checkout:

    python3 bench/setup_probe.py exact-bnb 0 20

It prints the set-up time and then a machine-speed probe (see speed.py)
taken in this process right after it, both in seconds.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402  (imports thermosched)

workloads.build(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
SECONDS = time.perf_counter() - START

import speed  # noqa: E402

print(repr(SECONDS), repr(speed.probe()))
