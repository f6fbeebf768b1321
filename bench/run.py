"""Benchmark for picardkit: three workloads, checked outputs, one result line.

    python3 bench/run.py --workload cli-corpus --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --self-test

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run.  Each run also
writes bench/out/result-<workload>-seed<n>-trace<0|1>.json (the result and
every operation's time) and, when traced, a trace-*.json of spans and
counts.  See bench/README.md for the workloads, metrics and figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import harness as h
from tracer import Tracer, cli_layer_calls, layer_metrics

WORKLOADS = ("cli-corpus", "pencil-queries", "cone-cover-kernels")
# cli-corpus times whole passes, at least this many: 58 samples.  The tail
# order statistic (ten samples beyond it) then falls in a cluster of eight
# samples of like cost (`cones blowup --rank 8` in both formats, `verify
# hodge-bound`, `verify quadric-target`), not on a step between commands of
# very different cost.
MIN_PASSES = 2


def _module(workload: str):
    return importlib.import_module(workload.replace("-", "_"))


def run_in_process(workload: str, seed: int, seconds: float, traced: bool,
                   quick: bool):
    wl = _module(workload)
    starts = 1 if quick else h.SETUP_STARTS
    if not traced:
        setup_s = h.time_starts([sys.executable, "bench/setup_probe.py",
                                 workload, str(seed)], starts)
    state = wl.setup(seed)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    samples = h.Samples()
    gc.collect()
    start = time.perf_counter()
    i = 0
    while i < 1 or (not quick and time.perf_counter() - start < seconds):
        job = wl.job(state, i)
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out, error = wl.operate(state, job), None
        except Exception:
            out, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - t0
        calibration_s = h.calibrate()
        samples.add(str(i), elapsed, calibration_s,
                    error or wl.check(state, job, out), wrong=error is None)
        i += 1
    if not traced:
        rss = h.peak_rss_mb(resource.RUSAGE_SELF)
        return samples, samples.end_to_end(setup_s, rss), None
    metrics = layer_metrics(tracer.spans, tracer.counts, len(samples.times),
                            samples.times, h.import_times(wl.IMPORTS, starts))
    return samples, metrics, {"spans": tracer.spans, "counts": tracer.counts}


def _run_command(entry, traced: bool):
    """(seconds, exit code, output, child trace or None) of one command."""
    if traced:
        argv = [sys.executable, "bench/traced_cli.py", *entry.argv]
    else:
        argv = [sys.executable, "-m", "picardkit", *entry.argv]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=h.ROOT, env=h.program_env(),
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if not traced:
        return elapsed, proc.returncode, proc.stdout, None
    if proc.returncode != 0:
        return elapsed, proc.returncode, proc.stderr, None
    child = json.loads(proc.stdout.splitlines()[-1])
    return elapsed, child["exit"], child["output"], child


def run_cli(seed: int, seconds: float, traced: bool, quick: bool):
    wl = _module("cli-corpus")
    starts = 1 if quick else h.SETUP_STARTS
    h.OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=h.OUT)
    spans, counts = [], {"cli.output_bytes": 0}
    samples = h.Samples()
    passes = 0
    try:
        entries = wl.corpus(seed, Path(workdir).relative_to(h.ROOT))
        if not traced:
            setup_s = h.time_starts(
                [sys.executable, "-c", wl.IMPORTS + "; print('ready')"],
                starts)
        if not quick:
            for entry in entries:  # untimed warm-up pass
                _run_command(entry, False)
        start = time.perf_counter()
        while passes < (1 if quick else MIN_PASSES) or (
                not quick and time.perf_counter() - start < seconds):
            order = list(entries)
            random.Random(f"{seed}:order:{passes}").shuffle(order)
            for entry in order:
                elapsed, code, out, child = _run_command(entry, traced)
                calibration_s = h.calibrate()
                samples.add(str(entry), elapsed, calibration_s,
                            wl.check(entry, code, out))
                if child:
                    base = len(spans)
                    for s in child["spans"]:
                        s[3] = s[3] + base if s[3] >= 0 else -1
                        s[4] = len(samples.times) - 1
                        spans.append(s)
                    for key, n in child["counts"].items():
                        counts[key] = counts.get(key, 0) + n
                    counts["cli.output_bytes"] += len(out.encode())
            passes += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not traced:
        rss = h.peak_rss_mb(resource.RUSAGE_CHILDREN)
        return samples, samples.end_to_end(setup_s, rss), None
    counts["cli.layer_calls"] = cli_layer_calls(spans)
    metrics = layer_metrics(spans, counts, passes, samples.times,
                            h.import_times(wl.IMPORTS, starts))
    return samples, metrics, {"spans": spans, "counts": counts}


def run(workload: str, seed: int, seconds: float, traced: bool,
        quick: bool = False) -> dict:
    if workload == "cli-corpus":
        samples, metrics, trace = run_cli(seed, seconds, traced, quick)
    else:
        samples, metrics, trace = run_in_process(workload, seed, seconds,
                                                 traced, quick)
    result = {"correct": samples.correct, "attempted": samples.attempted,
              "failed": samples.failed, "metrics": metrics}
    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    h.OUT.mkdir(parents=True, exist_ok=True)
    (h.OUT / f"result-{stem}.json").write_text(json.dumps(
        {**result, "sample_fields": ["operation", "seconds", "ratio"],
         "samples": samples.rows()}))
    if trace:
        (h.OUT / f"trace-{stem}.json").write_text(json.dumps(
            {"span_fields": ["layer", "start", "end", "parent", "operation"],
             **trace}))
    return result


def self_test() -> int:
    """One operation (for cli-corpus, one pass) of every workload, untraced
    and traced, with every output check."""
    ok = True
    for workload in WORKLOADS:
        for traced in (False, True):
            result = run(workload, 0, 0, traced, quick=True)
            good = result["correct"] and result["failed"] == 0
            ok = ok and good
            print(f"{workload} trace={int(traced)}: "
                  f"{'ok' if good else 'FAILED'} "
                  f"({result['attempted']} operations)", flush=True)
    print(json.dumps({"self_test": "passed" if ok else "failed"}))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="one operation of every workload, all checks on")
    args = ap.parse_args()
    h.require_program()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
