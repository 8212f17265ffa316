"""Spans around the benchmark's calls into the library, and the per-layer
metrics derived from them.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 for none) and ``op`` the index of the operation it belongs
to. Spans are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Calls straight through; used for every measured (untraced) pass."""

    tracing = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Records one span per call and sums named counters."""

    tracing = True

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack = [-1]

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, self._stack[-1], self.op)

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time (span time minus child spans) per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name]["calls"] += 1
            totals[name]["self_s"] += end - start - child[i]
        return totals

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
