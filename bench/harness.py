"""Timing, calibration, set-up probes and the result line, shared by the
workloads."""

from __future__ import annotations

import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# Fresh interpreters started per run to time set-up, after one untimed start
# that compiles bytecode.
SETUP_STARTS = 9
IMPORT_STARTS = 3

# The calibration loop: fixed pure-Python integer work, about 10 ms here.
CALIBRATION_ROUNDS = 100000
CALIBRATION_VALUE = 933429


def require_program() -> None:
    """Put the checkout's src/ first on the path, or stop with exit code 2."""
    if not (SRC / "picardkit" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'picardkit'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def program_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def calibrate() -> float:
    """Wall time of the calibration loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ROUNDS):
        acc = (acc * 31 + i) % 1000003
    t1 = time.perf_counter()
    if acc != CALIBRATION_VALUE:
        raise RuntimeError(f"calibration loop computed {acc}")
    return t1 - t0


def tail(samples: list[float]) -> float:
    """The highest order statistic with at least ten samples above it."""
    s = sorted(samples)
    return s[len(s) - 11] if len(s) > 10 else s[-1]


def time_starts(argv: list[str], starts: int) -> float:
    """Median seconds from starting argv until it prints its ready line."""
    samples = []
    for k in range(starts + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=program_env(),
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe {argv} failed")
        if k:
            samples.append(elapsed)
    return statistics.median(samples)


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")


def import_times(statement: str, starts: int = IMPORT_STARTS) -> dict:
    """Median cumulative import seconds of picardkit and of numpy, read from
    -X importtime in fresh interpreters."""
    runs = {"picardkit": [], "numpy": []}
    for k in range(starts + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", statement],
            cwd=ROOT, env=program_env(), capture_output=True, text=True,
            check=True)
        got = {"picardkit": 0, "numpy": 0}
        for m in _IMPORT_LINE.finditer(proc.stderr):
            cumulative, indent, name = int(m[1]), m[2], m[3]
            if name == "numpy":
                got["numpy"] += cumulative
            elif name.split(".")[0] == "picardkit" and len(indent) == 1:
                got["picardkit"] += cumulative
        if k:
            for key in runs:
                runs[key].append(got[key] / 1e6)
    return {key: statistics.median(v) for key, v in runs.items()}


def peak_rss_mb(who: int) -> float:
    """Peak resident set in MB (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024


class Samples:
    """Each operation's wall time, its ratio to the calibration loop run
    right after it, and how many operations failed."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.times: list[float] = []
        self.ratios: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, label: str, seconds: float, calibration_s: float,
            problem: str | None, wrong: bool = True) -> None:
        """Record one operation; a problem fails it, and a wrong output
        (rather than an exception) also clears `correct`."""
        self.labels.append(label)
        self.times.append(seconds)
        self.ratios.append(seconds / calibration_s)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.correct = self.correct and not wrong
            print(f"bench: operation {label} failed: {problem}",
                  file=sys.stderr)

    def rows(self) -> list:
        return list(zip(self.labels, self.times, self.ratios))

    def end_to_end(self, setup_s: float, rss_mb: float) -> dict:
        t = self.times
        return {
            "ops_per_s": {"value": len(t) / sum(t), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(t), "unit": "s"},
            "op_tail_s": {"value": tail(t), "unit": "s"},
            "op_p50_ref": {"value": statistics.median(self.ratios),
                           "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
