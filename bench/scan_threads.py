"""Reference figure: scan_conic_pairs(8) with PICARDKIT_THREADS unset and 1.

    python3 bench/scan_threads.py [repetitions]

Runs the two settings alternately in one warm process (the variable is read
on every call), one untimed call each first, and prints the median and
quartiles of each.
"""

import os
import statistics
import sys
import time

import harness

if __name__ == "__main__":
    harness.require_program()
    from picardkit.fibration import scan_conic_pairs

    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    settings = {"unset": None, "1": "1"}
    samples = {name: [] for name in settings}
    for k in range(reps + 1):
        for name, value in settings.items():
            os.environ.pop("PICARDKIT_THREADS", None)
            if value is not None:
                os.environ["PICARDKIT_THREADS"] = value
            t0 = time.perf_counter()
            scan_conic_pairs(8)
            if k:
                samples[name].append(time.perf_counter() - t0)
    for name, vals in samples.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"PICARDKIT_THREADS={name}: median {med:.4f} s, "
              f"quartiles {q1:.4f}-{q3:.4f} s, {len(vals)} repetitions")
