"""One set-up of a benchmark run, in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD SEED DIRECTORY

Imports vbvar (with numpy and scipy) as the benchmark does, writes the
workload's inputs for SEED into DIRECTORY, and prints time.monotonic(),
which the caller compares with the moment it spawned the process.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (imports vbvar, numpy and scipy)

if __name__ == "__main__":
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.make_inputs(workloads.WORKLOADS[workload], seed, directory)
    print(time.monotonic())
