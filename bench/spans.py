"""In-memory span recorder that wraps the program's public functions.

A span is ``(id, name, start_ns, end_ns, parent_id, request_id)``. Spans
are appended to a list in memory and written out when the run ends. Clocks
are ``time.perf_counter_ns``, which on Linux reads CLOCK_MONOTONIC, so
spans from the replay server's process line up with the client's.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, first_id: int = 1) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        self._counters: list[Counter] = []

    # -- per-thread state ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            self._counters.append(counter)
        return counter

    def adopt(self, parent_id: int | None, request_id: int | None) -> None:
        """Make spans opened next on this thread children of a span recorded
        elsewhere (the client's GET, for spans in the replay server)."""
        self._local.stack = [] if parent_id is None else [(parent_id, "remote")]
        self._local.request_id = request_id

    @property
    def request_id(self) -> int | None:
        return getattr(self._local, "request_id", None)

    # -- spans and counts -------------------------------------------------------

    @contextmanager
    def span(self, name: str, request_id: int | None = None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        rid = request_id if request_id is not None else self.request_id
        stack.append((span_id, name))
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, rid))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_count(self, name: str, fn):
        def counted(*args, **kwargs):
            stack = self._stack()
            self._counter()[(name, stack[-1][1] if stack else None)] += 1
            return fn(*args, **kwargs)

        return counted

    def counts(self) -> Counter:
        total = Counter()
        for counter in self._counters:
            total.update(counter)
        return total

    def count(self, name: str, within: str | None = None) -> int:
        return sum(n for (k, inside), n in self.counts().items()
                   if k == name and (within is None or inside == within))

    # -- installing wrappers ----------------------------------------------------

    @contextmanager
    def installed(self, plan):
        """Wrap each ``(owner, attribute, span name, kind)`` of `plan`, where
        kind is "span" or "count"; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, kind in plan:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, raw))
                make = self.wrap if kind == "span" else self.wrap_count
                if isinstance(raw, classmethod):
                    replacement = classmethod(make(name, raw.__func__))
                else:
                    replacement = make(name, raw)
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- analysis -------------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "request": rid}) + "\n")


def load_spans(path: Path) -> list[tuple]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            spans.append((d["id"], d["name"], d["start_ns"], d["end_ns"], d["parent"], d["request"]))
    return spans


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total and self time in nanoseconds. Self time
    is a span's duration less the durations of its direct children."""
    child_ns = defaultdict(int)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for span_id, name, start, end, _, _ in spans:
        row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[span_id]
    return out


def decomposition(unit: str, self_times: dict, untraced: float, traced: float) -> dict:
    """How the self times along the blocking path account for the untraced
    time of one operation, once the tracing overhead is taken off."""
    overhead = traced - untraced
    return {
        "unit": unit,
        "self_time": self_times,
        "sum_self": sum(self_times.values()),
        "untraced": untraced,
        "traced": traced,
        "tracing_overhead": overhead,
        "accounted_share": (sum(self_times.values()) - overhead) / untraced,
    }
