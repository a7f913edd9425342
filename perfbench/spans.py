"""In-memory spans and the statistics the benchmark reports.

A span is (id, parent id, name, start, end).  Spans of one operation share the
operation's outer span as their root.  Nothing is written while a run is
measuring; :meth:`Tracer.dump` writes the spans once the run has ended.
"""
from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

TAIL_LADDER = (99, 95, 90, 80, 75, 70, 60, 50)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append((sid, self._stack[-1] if self._stack else None, name, perf_counter(), 0.0))
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            s = self.spans[sid]
            self.spans[sid] = (s[0], s[1], s[2], s[3], perf_counter())

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a child span of the current span and return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "duration_s"],
                       "spans": [[i, p, n, round(s, 9), round(e - s, 9)]
                                 for i, p, n, s, e in self.spans]}, fh)


class NullTracer(Tracer):
    """Tracing off: calls go straight through and nothing is recorded."""

    @contextmanager
    def span(self, name: str):
        yield None

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class LayerStats:
    """Durations and counts gathered while replaying layer calls."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, list[float]] = defaultdict(list)

    def timed(self, name: str, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.durations[name].append(perf_counter() - t0)
        return out

    def add(self, name: str, seconds: float) -> None:
        self.durations[name].append(seconds)

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(value)

    def median(self, name: str) -> float | None:
        values = self.durations.get(name)
        return statistics.median(values) if values else None

    def mean_count(self, name: str) -> float | None:
        values = self.counts.get(name)
        return statistics.fmean(values) if values else None


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[k - 1]


def tail_percentile(n: int) -> int:
    """The highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if n - max(1, math.ceil(pct / 100 * n)) >= 10:
            return pct
    return 50
