"""Span recorder for the traced run: measured from outside.

The benchmark wraps the callables it is about to drive -- methods on
the layer classes, module-level functions by attribute on the module
that *imports* them -- and records one span per call: name, start,
end, parent, and the trace (request) it belongs to.  Nothing inside
``src/`` knows it is being traced.  Spans stay in memory and are
written out once, at the end.

A span's *self time* is its duration minus the duration of its direct
children, so the self times of one request's spans add up to exactly
the request's round trip.

Threads: the client (main thread) opens one root span per request and
the in-process HTTP handler thread records the server-side spans.
Each thread nests on its own stack; a span that starts on an empty
stack hangs under the request currently in flight.  That is only
sound with one request in flight, which is the benchmark's load model
(one closed-loop connection).
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

NAME, START, END, PARENT, TRACE, COUNT = range(6)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        """Rows ``[name, start, end, parent_index, trace_id, count]``;
        ``parent_index`` is -1 for a root."""
        self._local = threading.local()
        self._root = -1
        self._trace = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, name: str, count: float = 0.0) -> Iterator[None]:
        """Root span of one client request (one trace id each)."""
        self._trace += 1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, -1,
                           self._trace, count])
        self._root = index
        try:
            yield
        finally:
            self.spans[index][END] = perf_counter()
            self._root = -1

    def wrap(self, name: str, fn: Callable,
             count: Callable[..., float] | None = None) -> Callable:
        """``fn`` with a span around every call.  ``count(result,
        *args, **kwargs)`` attaches one number of work done to the
        span (batches out, points in, pairs computed)."""
        spans = self.spans
        stack_of = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent = stack[-1] if stack else self._root
            index = len(spans)
            row = [name, perf_counter(), 0.0, parent, self._trace, 0.0]
            spans.append(row)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    row[COUNT] = count(result, *args, **kwargs)
                return result
            finally:
                row[END] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def patched(self, targets: list[tuple]) -> Iterator[None]:
        """Install wrappers for ``(owner, attribute, span_name[,
        count])`` targets; the originals come back on exit.  Patch
        *before* building the session: the bus and the engine capture
        bound methods of their subscribers at wiring time."""
        originals = []
        try:
            for owner, attribute, name, *rest in targets:
                original = getattr(owner, attribute)
                originals.append((owner, attribute, original))
                setattr(owner, attribute,
                        self.wrap(name, original, *rest))
            yield
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)


def self_times(spans: list[list]) -> np.ndarray:
    """Self time of every span (duration minus direct children)."""
    if not spans:
        return np.zeros(0)
    start = np.array([row[START] for row in spans])
    end = np.array([row[END] for row in spans])
    parent = np.array([row[PARENT] for row in spans])
    duration = end - start
    own = duration.copy()
    has_parent = parent >= 0
    np.subtract.at(own, parent[has_parent], duration[has_parent])
    return own


def aggregate(spans: list[list], own: np.ndarray, first: int = 0,
              last: int | None = None) -> dict[str, dict[str, float]]:
    """Per span name over ``spans[first:last]``: calls, total self
    seconds (``own`` is :func:`self_times` of all spans), total
    seconds and summed counts."""
    out: dict[str, dict[str, float]] = {}
    for index in range(first, len(spans) if last is None else last):
        row = spans[index]
        entry = out.get(row[NAME])
        if entry is None:
            entry = out[row[NAME]] = {"calls": 0, "self_s": 0.0,
                                      "total_s": 0.0, "count": 0.0}
        entry["calls"] += 1
        entry["self_s"] += float(own[index])
        entry["total_s"] += row[END] - row[START]
        entry["count"] += row[COUNT]
    return out


def malformed(spans: list[list], own: np.ndarray | None = None,
              slack: float = 1e-6) -> list[str]:
    """Reasons the span tree is not well-formed (empty when it is):
    every span closed, every child inside its parent, self >= 0."""
    problems = []
    if own is None:
        own = self_times(spans)
    for index, row in enumerate(spans):
        if row[END] < row[START]:
            problems.append(f"span {index} {row[NAME]} never closed")
        parent = row[PARENT]
        if parent >= 0:
            if parent >= index:
                problems.append(f"span {index} precedes its parent")
                continue
            outer = spans[parent]
            if row[START] < outer[START] - slack \
                    or row[END] > outer[END] + slack:
                problems.append(
                    f"span {index} {row[NAME]} leaves its parent "
                    f"{outer[NAME]}")
        if own[index] < -slack:
            problems.append(
                f"span {index} {row[NAME]} has self time {own[index]}")
        if len(problems) >= 20:
            break
    return problems


def dump(spans: list[list], path: str, meta: dict) -> None:
    """Write the trace compactly: a name table and one row per span,
    times in seconds from the first span."""
    names: dict[str, int] = {}
    origin = spans[0][START] if spans else 0.0
    rows = [
        [names.setdefault(row[NAME], len(names)),
         round(row[START] - origin, 7), round(row[END] - origin, 7),
         row[PARENT], row[TRACE], row[COUNT]]
        for row in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**meta, "names": list(names),
                   "columns": ["name", "start", "end", "parent",
                               "trace", "count"],
                   "spans": rows}, handle, separators=(",", ":"))


def load(path: str) -> tuple[dict, list[list]]:
    """Inverse of :func:`dump`: ``(meta, spans)`` with names back."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    names = data.pop("names")
    spans = [[names[row[0]], *row[1:]] for row in data.pop("spans")]
    return data, spans
