"""Timing wrappers for the traced benchmark run.

The wrappers live here, outside the package: each one replaces a public
fedlbg entry point for the length of one traced repeat and records a span
(name, start, end, parent) per call in memory. Where a module imported a
function by name (``fl_core.gradient``, ``analyzer.local_round``,
``lbgm.dot``, ...), the wrapper replaces that name too, so no call slips
past it. Self time is a span's time minus the time of its direct children.
"""

import math
import sys
from collections import Counter
from time import perf_counter

# Span name -> the entry points it wraps, as (module, attribute) for
# functions and (module, class, method) for methods.
SPANS = {
    "models.gradient": [("models", "gradient")],
    "models._canonical_order": [("models", "_canonical_order")],
    "fl_core.local_round": [("fl_core", "local_round")],
    "fl_core.evaluate": [("fl_core", "evaluate")],
    "fl_core.aggregate": [("fl_core", "aggregate")],
    "fl_core.build_experiment": [("fl_core", "build_experiment")],
    "data.build": [("fl_core", "build_datasets")],
    "data.batch": [("data", "Dataset", "batch")],
    # the look-back step of one uplink: the whole LBGM policy step, or the
    # gate on densified payloads when stacked under a compressor
    "lbgm.process": [("lbgm", "LbgmPolicy", "process"), ("compressors", "stack_lbgm")],
    "lbgm.reconstruct": [("lbgm", "reconstruct")],
    "compressors.compress": [
        ("compressors", "topk"),
        ("compressors", "rank_r"),
        ("compressors", "sign_compress"),
    ],
    "compressors.process": [("compressors", "CompressedPolicy", "process")],
    "analyzer.record_centralized": [("analyzer", "record_centralized")],
    "analyzer.pgd": [("analyzer", "pgd")],
    "analyzer.overlap_matrix": [("analyzer", "overlap_matrix")],
    "analyzer.similarity_matrix": [("analyzer", "similarity_matrix")],
    "harness.parse": [("harness", "parse_config")],
    "harness.emit": [
        ("harness", "_write"),
        ("harness", "_matrix_csv"),
        ("fl_core", "MetricsTable", "to_csv"),
        ("fl_core", "CommLedger", "to_csv"),
    ],
}

# Entry points whose result is an uplink message, counted by tag.
UPLINK_POLICIES = [("lbgm", "LbgmPolicy"), ("compressors", "CompressedPolicy")]

# Highest percentile with at least ten calls beyond it, from these.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "fedlbg" or name.startswith("fedlbg.")]


class Patches:
    """Replacements of fedlbg names that can all be undone at once."""

    def __init__(self):
        self._undo = []

    def function(self, module, attr, replacement):
        """Rebind every fedlbg module name that holds module.attr."""
        original = getattr(module, attr)
        wrapped = replacement(original)
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    self._undo.append((mod, name, value))

    def method(self, cls, attr, replacement):
        original = cls.__dict__[attr]
        setattr(cls, attr, replacement(original))
        self._undo.append((cls, attr, original))

    def undo(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


class Tracer:
    """Spans and counts of one traced repeat, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_.pop()
            return out

        return traced

    def count_samples(self, fn):
        counts = self.counts

        def counted(model, theta, batch):
            counts["models.gradient.samples"] += batch.inputs.shape[0]
            return fn(model, theta, batch)

        return counted

    def count_uplinks(self, fn, scalar_tag):
        counts = self.counts

        def counted(*args, **kwargs):
            msg, sin2 = fn(*args, **kwargs)
            counts["lbgm.uplinks"] += 1
            counts["lbgm.uplinks.scalar"] += msg.tag == scalar_tag
            return msg, sin2

        return counted

    def count_calls(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, modules, layers=True) -> Patches:
        """Wrap the entry points of SPANS and count uplinks, dot products and
        the gradient's samples; with layers=False, only count the samples.
        `modules` maps short names to the imported fedlbg modules. Undo the
        returned Patches to remove the wrappers."""
        patches = Patches()
        if not layers:
            patches.function(modules["models"], "gradient", self.count_samples)
            return patches
        for name, targets in SPANS.items():
            for target in targets:
                if len(target) == 2:
                    patches.function(modules[target[0]], target[1],
                                     lambda f, name=name: self.wrap(name, f))
                else:
                    cls = getattr(modules[target[0]], target[1])
                    patches.method(cls, target[2], lambda f, name=name: self.wrap(name, f))
        # counters sit outside the spans, so spans time only the entry point
        patches.function(modules["models"], "gradient", self.count_samples)
        scalar_tag = modules["lbgm"].TAG_SCALAR
        for mod, cls in UPLINK_POLICIES:
            patches.method(getattr(modules[mod], cls), "process",
                           lambda f: self.count_uplinks(f, scalar_tag))
        patches.function(modules["numerics"], "dot",
                         lambda f: self.count_calls("numerics.dot.calls", f))
        return patches

    def stats(self):
        """Per span name: calls, total time of outermost spans, self time,
        and the sorted call durations."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            st = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            duration = end - start
            st["calls"] += 1
            st["self_s"] += duration - child_time[i]
            st["durations"].append(duration)
            if parent < 0 or self.spans[parent][0] != name:
                st["s"] += duration
        for st in out.values():
            st["durations"].sort()
        return out

    def write_csv(self, path):
        with open(path, "w") as f:
            f.write("index,name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(calls):
    """Highest of TAIL_PERCENTILES with at least ten calls beyond it, or
    None when there are fewer than twenty calls."""
    fits = [p for p in TAIL_PERCENTILES if calls * (1.0 - p / 100.0) >= 10.0]
    return fits[-1] if fits else None
