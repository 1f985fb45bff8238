"""Benchmark-owned spans around calls into each layer.

The benchmark times the repo's layers from outside, so the spans live
here and not in ``repro.observe``: a span is ``(id, parent, trace, name,
start, end)``, kept in memory and written to ``spans.jsonl`` when the
run ends.  ``trace`` is the identifier every span of one sample (or one
batch) shares.

Parents follow the calling thread's stack of open spans.  A span opened
on a thread with no open span — a loader worker thread decoding ahead —
adopts :attr:`SpanRecorder.root`, the batch span the consumer currently
has open, so prefetched work still hangs under a ``loader.batch``.

Self time is a span's duration minus the part of its interval that its
children cover (overlapping children counted once, children clipped to
the parent's interval).
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Span", "SpanRecorder", "self_times", "summarize", "check_parents"]


class Span:
    __slots__ = ("id", "parent", "trace", "name", "start", "end")

    def __init__(self, id, parent, trace, name, start, end=None):
        self.id = id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.start = start
        self.end = end

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class SpanRecorder:
    """In-memory span sink shared by the timing proxies of one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []  # list.append is atomic under the GIL
        self.root: Span | None = None
        self._ids = itertools.count(1)
        self._tls = threading.local()

    @contextmanager
    def span(self, name: str, trace=None):
        stack = self._tls.__dict__.setdefault("stack", [])
        if stack:
            parent = stack[-1]
        else:  # an explicit trace starts a tree of its own
            parent = self.root if trace is None else None
        if trace is None and parent is not None:
            trace = parent.trace
        sp = Span(
            next(self._ids), parent.id if parent is not None else None,
            trace, name, perf_counter(),
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            stack.pop()
            self.spans.append(sp)

    def record(self, name: str, start: float, end: float, trace=None) -> None:
        """A root span from timestamps the caller took itself (the
        ladder's tight loops, where a context manager would be most of
        the time measured)."""
        self.spans.append(Span(next(self._ids), None, trace, name, start, end))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(sp.to_json()) + "\n")


def self_times(spans) -> dict:
    """``{span id: self seconds}`` for every span in ``spans``."""
    children: dict = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for child in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = sp.duration - covered
    return out


def summarize(spans) -> dict:
    """Per span name: call count, total and self milliseconds."""
    selfs = self_times(spans)
    out: dict = {}
    for sp in spans:
        row = out.setdefault(sp.name, {"n": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["n"] += 1
        row["total_ms"] += sp.duration * 1e3
        row["self_ms"] += selfs[sp.id] * 1e3
    return out


def check_parents(spans) -> list[str]:
    """Problems with the span tree; an empty list means well-formed.

    Every parent must exist, have been opened before its child, and
    carry the same trace identifier; every span must be closed.
    """
    by_id = {sp.id: sp for sp in spans}
    problems = []
    for sp in spans:
        if sp.end is None or sp.end < sp.start:
            problems.append(f"span {sp.id} ({sp.name}) is not closed")
        if sp.parent is None:
            continue
        parent = by_id.get(sp.parent)
        if parent is None:
            problems.append(f"span {sp.id} ({sp.name}) has unknown parent")
        elif parent.id >= sp.id or parent.start > sp.start:
            problems.append(f"span {sp.id} ({sp.name}) predates its parent")
        elif parent.trace != sp.trace:
            problems.append(f"span {sp.id} ({sp.name}) left its trace")
    return problems
