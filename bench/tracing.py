"""Spans recorded by the benchmark around its own calls into the package.

A span has a name, a start and an end (``time.perf_counter``), the index
of the enclosing span (or -1) and the id of the request, one public call
of the workload, that caused it.  Spans stay in memory, in flat arrays that
the garbage collector does not have to walk, until the run ends.  The
calls are made in one thread, so child spans nest inside their parent and
never overlap each other: a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, label: str):
        self.label = label
        self.request = 0
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "label": self.label,
                    "fields": ["name", "start", "end", "parent", "request"],
                    "spans": list(zip(self.names, self.starts, self.ends,
                                      self.parents, self.requests)),
                    "counts": dict(self.counts),
                },
                fh,
            )


def span_totals(tr: Tracer) -> dict[str, dict]:
    """Per span name: number of calls, total duration and total self time."""
    child_time = [0.0] * len(tr.names)
    for idx, parent in enumerate(tr.parents):
        if parent >= 0:
            child_time[parent] += tr.ends[idx] - tr.starts[idx]
    out: dict[str, dict] = {}
    for idx, name in enumerate(tr.names):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = tr.ends[idx] - tr.starts[idx]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time[idx]
    return out
