"""Set up one in-process workload in a fresh interpreter, then print 'ready'.

    python3 bench/setup_probe.py <workload> <seed>

run.py times this from start to the ready line to measure setup_s: import,
input generation and one untimed warm-up operation.
"""

import importlib
import sys

import harness

if __name__ == "__main__":
    harness.require_program()
    workload = importlib.import_module(sys.argv[1].replace("-", "_"))
    workload.setup(int(sys.argv[2]))
    print("ready", flush=True)
