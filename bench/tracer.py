"""Spans and counters around picardkit's public functions, for traced runs.

Wrappers are installed from here at run time; no file of the program is
changed.  Modules import names by value (``from .curves import
enumerate_conic`` in both ``fibration`` and ``cli``), so a wrapper replaces
the name in every picardkit module that holds it, or internal calls would go
uncounted.  Methods are replaced on their class.

A span is [layer, start, end, parent index, operation id].  Spans stay in
memory and are written out when the run ends.  A layer's self time is its
spans' durations minus the parts covered by their direct child spans.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter

import reference

MODULES = ("lattice", "curves", "fibration", "cones", "doublecover", "cli")


def _calls(name):
    def count(counts, args, out):
        counts[name] += 1
    return count


def _length(name):
    def count(counts, args, out):
        counts[name] += len(out)
    return count


def _enumerated(counts, args, out):
    counts["curves.enumerate_calls"] += 1
    counts["curves.classes_emitted"] += len(out)


def _scanned(counts, args, out):
    counts["fibration.pairs_examined"] += out.pair_count


def _classified(counts, args, out):
    n = len(reference.conic_classes(args[0]))
    counts["fibration.pairs_examined"] += n * (n - 1) // 2


def _dual_rays(counts, args, out):
    counts["cones.dd_rays_out"] += len(out.rays.__wrapped__(out))


# (module, function or Class.method, layer, counter)
WRAPPED = (
    ("curves", "enumerate_exceptional", "curves.enumerate", _enumerated),
    ("curves", "enumerate_conic", "curves.enumerate", _enumerated),
    ("curves", "reducible_fibers", "curves.reducible_fibers",
     _length("curves.fibers_found")),
    ("fibration", "scan_conic_pairs", "fibration.scan", _scanned),
    ("fibration", "classify_finite_pairs", "fibration.scan", _classified),
    ("fibration", "analyze_pair", "fibration.analyze_pair",
     _calls("fibration.analyze_pair_calls")),
    ("fibration", "hodge_bound", "fibration.hodge_bound", None),
    ("cones", "surface_cone_report", "cones.surface_report",
     _calls("cones.surface_reports")),
    ("cones", "ConePoly.rays", "cones.dd", _length("cones.dd_rays_out")),
    ("cones", "ConePoly.facet_normals", "cones.dd",
     _length("cones.dd_rays_out")),
    ("cones", "dual_cone", "cones.dd", _dual_rays),
    ("cones", "in_cone_lp", "cones.lp", _calls("cones.lp_calls")),
    ("cones", "extremal_rays", "cones.lp", None),
    ("cones", "is_simplicial", "cones.lp", None),
    ("doublecover", "anticanonical_power", "doublecover.anticanonical",
     _calls("doublecover.anticanonical_calls")),
    ("doublecover", "cover_singular_at", "doublecover.singular", None),
    ("lattice", "top_intersection", "lattice.top_intersection", None),
)

# counted but not timed: cheap and called from inside a timed span
COUNTED = (
    ("doublecover", "MultiHomogPoly.partial_derivative",
     "doublecover.partials_evaluated"),
)

# per-layer metric: (name, unit, source); "self:<layer>" sums self time,
# "count:<counter>" reads a counter
LAYER_METRICS = (
    ("cli.self_s", "s", "self:cli"),
    ("cli.output_bytes", "bytes", "count:cli.output_bytes"),
    ("cli.layer_calls", "count", "count:cli.layer_calls"),
    ("curves.enumerate_s", "s", "self:curves.enumerate"),
    ("curves.enumerate_calls", "count", "count:curves.enumerate_calls"),
    ("curves.classes_emitted", "count", "count:curves.classes_emitted"),
    ("curves.reducible_fibers_s", "s", "self:curves.reducible_fibers"),
    ("curves.fibers_found", "count", "count:curves.fibers_found"),
    ("fibration.scan_s", "s", "self:fibration.scan"),
    ("fibration.pairs_examined", "count", "count:fibration.pairs_examined"),
    ("fibration.analyze_pair_s", "s", "self:fibration.analyze_pair"),
    ("fibration.analyze_pair_calls", "count",
     "count:fibration.analyze_pair_calls"),
    ("fibration.hodge_bound_s", "s", "self:fibration.hodge_bound"),
    ("cones.surface_report_s", "s", "self:cones.surface_report"),
    ("cones.surface_reports", "count", "count:cones.surface_reports"),
    ("cones.dd_s", "s", "self:cones.dd"),
    ("cones.dd_rays_out", "count", "count:cones.dd_rays_out"),
    ("cones.lp_s", "s", "self:cones.lp"),
    ("cones.lp_calls", "count", "count:cones.lp_calls"),
    ("doublecover.anticanonical_s", "s", "self:doublecover.anticanonical"),
    ("doublecover.anticanonical_calls", "count",
     "count:doublecover.anticanonical_calls"),
    ("lattice.top_intersection_s", "s", "self:lattice.top_intersection"),
    ("doublecover.singular_s", "s", "self:doublecover.singular"),
    ("doublecover.partials_evaluated", "count",
     "count:doublecover.partials_evaluated"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op = 0

    def wrap(self, layer: str, fn, count=None):
        spans, stack, counts, clock = (self.spans, self._stack, self.counts,
                                       time.perf_counter)

        def traced(*args, **kwargs):
            rec = [layer, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    def install(self) -> None:
        """Replace every wrapped name in every picardkit module."""
        modules = [importlib.import_module("picardkit")] + [
            importlib.import_module(f"picardkit.{m}") for m in MODULES]
        for mod, name, layer, count in WRAPPED:
            self._replace(mod, name, lambda fn: self.wrap(layer, fn, count),
                          modules)
        for mod, name, counter in COUNTED:
            self._replace(mod, name, lambda fn: self.counted(counter, fn),
                          modules)

    @staticmethod
    def _replace(mod: str, name: str, make, modules) -> None:
        owner = importlib.import_module(f"picardkit.{mod}")
        if "." in name:
            cls_name, meth = name.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, make(getattr(cls, meth)))
            return
        orig = getattr(owner, name)
        wrapped = make(orig)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapped)


def self_times(spans) -> Counter:
    """Seconds per layer, each span less the time its direct children took."""
    out: Counter = Counter()
    for layer, start, end, _, _ in spans:
        out[layer] += end - start
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            out[spans[parent][0]] -= end - start
    return out


def cli_layer_calls(spans) -> int:
    """Calls made by the CLI front end directly into a program layer."""
    return sum(1 for s in spans if s[3] >= 0 and spans[s[3]][0] == "cli")


def layer_metrics(spans, counts, units: int, op_times: list[float],
                  imports: dict) -> dict:
    """Every per-layer metric, per unit of work (an operation or a pass)."""
    selfs = self_times(spans)
    out = {
        "import.picardkit_s": {"value": imports["picardkit"], "unit": "s"},
        "import.numpy_s": {"value": imports["numpy"], "unit": "s"},
    }
    for name, unit, source in LAYER_METRICS:
        kind, key = source.split(":")
        total = selfs.get(key, 0.0) if kind == "self" else counts.get(key, 0)
        out[name] = {"value": total / units, "unit": unit}
    out["trace.op_p50_s"] = {"value": statistics.median(op_times), "unit": "s"}
    out["trace.spans"] = {"value": len(spans) / units, "unit": "count"}
    return out
