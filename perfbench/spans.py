"""In-memory spans around the benchmark's calls into kaspin.

A span is (name, start_ns, end_ns, parent, op): name is
"<layer>.<function>[.<signature>]", parent the index of the enclosing
span (-1 for none) and op the id of the benchmark op it belongs to
(-1 for set-up work before the timed phase). Spans are recorded only
while ``enabled`` is true; otherwise ``call`` costs one extra Python
call, which untraced runs pay as well.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import defaultdict

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []
        self.op = -1
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs), inside a span named name when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def median_ns(durations, name):
    """Median duration of the spans called name, 0.0 when there are none."""
    values = durations.get(name)
    return float(statistics.median(values)) if values else 0.0


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans):
    """Per-name call counts and durations, and per-layer self time.

    A span's self time is its duration minus the durations of its
    direct children; the benchmark is single-threaded, so children never
    overlap. Only spans of timed ops (op >= 0) count toward self time.
    Returns (durations_ns_by_name, self_ns_by_layer, root_ns, root_count).
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    durations = defaultdict(list)
    self_ns = defaultdict(int)
    root_ns = 0
    roots = 0
    for index, (name, start, end, parent, op) in enumerate(spans):
        durations[name].append(end - start)
        if op < 0:
            continue
        self_ns[layer_of(name)] += end - start - child_ns[index]
        if name == ROOT:
            root_ns += end - start
            roots += 1
    return durations, self_ns, root_ns, roots
