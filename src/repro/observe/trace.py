"""Low-overhead span recorder: per-sample trace trees on a ring buffer.

The repo's counters (:mod:`repro.tune.stats`) answer *how much* time a
stage took across an epoch; they cannot answer *why sample #4171 took
80 ms* — which tier missed, which replica the cluster retried, how long
the wire round-trip sat behind the server's admission gate.  This module
records that story as a **span tree per sample**: a root span
(``loader.fetch`` on the client, ``server.handle`` on a server) with
nested child spans emitted by whatever the sample's read path actually
crossed (``retry.attempt``, ``tier.hit``, ``wire.rpc``, ``decode``...).

Design constraints, in order:

* **Allocation-light hot path.**  When no trace is active,
  :func:`span` returns a shared no-op context manager — one thread-local
  read and a ``None`` check, no allocation.  When a trace *is* active a
  span is one slotted object and two clock calls.
* **Bounded memory.**  Committed spans land in a fixed-capacity ring
  buffer (oldest overwritten first); exemplars are a bounded heap.
* **Seeded head/tail sampling.**  The head decision (record this trace
  at all?) is drawn from a seeded PRNG at trace start, so a given seed
  reproduces exactly which samples were traced.  Tail capture keeps the
  **slowest-K full span trees regardless of the head decision**, so the
  outliers the tracing exists for are never sampled away.
* **Thread-safe.**  The active trace is thread-local (one sample is
  processed entirely on one worker thread); the ring and exemplar heap
  take one short lock per *trace commit*, never per span.

Cross-process stitching: span/trace ids are 64-bit integers drawn from a
per-recorder stream salted with the recorder's ``proc`` name, so the
client and the servers it talks to can merge their spans by ``trace_id``
without id collisions (see :mod:`repro.observe.wire` for how the context
crosses the frame protocol, and :mod:`repro.observe.export` for the
stitching itself).
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
import time
from time import perf_counter

__all__ = [
    "Span",
    "TraceRecorder",
    "span",
    "NOOP_SPAN",
    "current_trace",
    "current_trace_id",
    "current_span_id",
    "traced",
    "span_to_json",
    "span_from_json",
]

_tls = threading.local()


class Span:
    """One timed region of one trace; a node of a span tree."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "proc",
        "t0", "dur", "tid", "meta",
    )

    def __init__(self, name, trace_id, span_id, parent_id, proc):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.proc = proc
        self.t0 = 0.0
        self.dur = 0.0
        self.tid = 0
        self.meta = None

    def annotate(self, **meta) -> None:
        """Attach metadata (lazily allocates the dict)."""
        if self.meta is None:
            self.meta = meta
        else:
            self.meta.update(meta)

    def __repr__(self) -> str:  # debugging aid, not hot path
        return (
            f"Span({self.name!r}, trace={self.trace_id:#x}, "
            f"dur={self.dur * 1e3:.3f}ms)"
        )


def span_to_json(s: Span) -> dict:
    """JSON-safe form; ids as hex strings (64-bit ints overflow JS)."""
    d = {
        "name": s.name,
        "trace_id": format(s.trace_id, "x"),
        "span_id": format(s.span_id, "x"),
        "parent_id": format(s.parent_id, "x"),
        "proc": s.proc,
        "t0": s.t0,
        "dur": s.dur,
        "tid": s.tid,
    }
    if s.meta:
        d["meta"] = {k: _json_safe(v) for k, v in s.meta.items()}
    return d


def span_from_json(d: dict) -> Span:
    """Inverse of :func:`span_to_json` (hex id strings back to ints)."""
    s = Span(
        d["name"],
        int(d["trace_id"], 16),
        int(d["span_id"], 16),
        int(d["parent_id"], 16),
        d.get("proc", "?"),
    )
    s.t0 = float(d.get("t0", 0.0))
    s.dur = float(d.get("dur", 0.0))
    s.tid = int(d.get("tid", 0))
    meta = d.get("meta")
    if meta:
        s.meta = dict(meta)
    return s


def _json_safe(v):
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return repr(v)


class _NoopSpan:
    """Shared inert span: the disabled-path return of :func:`span`.

    ``name`` is a writable slot (never read back) so hooks that rename
    a span in flight (``tier.hit`` → ``tier.miss``) need no branch.
    """

    __slots__ = ("name",)
    span_id = 0
    trace_id = 0

    def __init__(self):
        self.name = ""

    def annotate(self, **meta) -> None:
        pass


class _NoopCtx:
    __slots__ = ()

    def __enter__(self):
        return NOOP_SPAN

    def __exit__(self, *exc):
        return False


#: the inert span: what :func:`span` yields with no active trace, and
#: what a caller passes where a span is expected but nothing is recorded
NOOP_SPAN = _NoopSpan()
_NOOP_CTX = _NoopCtx()


class _ActiveSpan:
    """Inline span context; records perf_counter duration on exit."""

    __slots__ = ("trace", "sp", "pc0")

    def __init__(self, trace, sp):
        self.trace = trace
        self.sp = sp

    def __enter__(self):
        sp = self.sp
        sp.tid = threading.get_ident()
        sp.t0 = time.time()
        self.trace.stack.append(sp.span_id)
        self.pc0 = perf_counter()
        return sp

    def __exit__(self, exc_type, exc, tb):
        self.sp.dur = perf_counter() - self.pc0
        trace = self.trace
        trace.stack.pop()
        trace.spans.append(self.sp)
        if exc is not None and getattr(exc, "trace_id", 0) == 0:
            try:
                exc.trace_id = trace.trace_id
            except AttributeError:
                pass  # exceptions with __slots__
        return False


def span(name: str, **meta):
    """Open a child span under this thread's active trace.

    No active trace → a shared no-op context manager (no allocation).
    The yielded object supports ``annotate(**meta)`` and, when live,
    exposes ``span_id``/``trace_id`` for wire propagation.
    """
    trace = getattr(_tls, "trace", None)
    if trace is None:
        return _NOOP_CTX
    sp = Span(
        name,
        trace.trace_id,
        trace.recorder._next_id(),
        trace.stack[-1],
        trace.recorder.proc,
    )
    if meta:
        sp.meta = meta
    return _ActiveSpan(trace, sp)


def current_trace():
    """This thread's active trace handle, or None."""
    return getattr(_tls, "trace", None)


def current_trace_id() -> int:
    """This thread's active trace id, or 0 when no trace is open."""
    trace = getattr(_tls, "trace", None)
    return trace.trace_id if trace is not None else 0


def current_span_id() -> int:
    """The innermost open span's id on this thread, or 0."""
    trace = getattr(_tls, "trace", None)
    return trace.stack[-1] if trace is not None else 0


class _Trace:
    """An in-flight trace: root span, child list, open-span stack."""

    __slots__ = (
        "recorder", "trace_id", "sampled", "spans", "stack",
        "root", "_prev", "_pc0",
    )

    def __init__(self, recorder, name, trace_id, parent_id, sampled, meta):
        self.recorder = recorder
        self.trace_id = trace_id
        self.sampled = sampled
        root = Span(name, trace_id, recorder._next_id(), parent_id,
                    recorder.proc)
        if meta:
            root.meta = meta
        self.root = root
        self.spans = []
        self.stack = [root.span_id]

    def __enter__(self):
        self._prev = getattr(_tls, "trace", None)
        _tls.trace = self
        root = self.root
        root.tid = threading.get_ident()
        root.t0 = time.time()
        self._pc0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        root = self.root
        root.dur = perf_counter() - self._pc0
        self.spans.append(root)
        _tls.trace = self._prev
        if exc is not None and getattr(exc, "trace_id", 0) == 0:
            try:
                exc.trace_id = self.trace_id
            except AttributeError:
                pass
        self.recorder._commit(self)
        return False


class TraceRecorder:
    """Bounded, thread-safe store of committed spans.

    Parameters
    ----------
    capacity:
        Ring-buffer size in **spans** (oldest overwritten first).
    sample_rate:
        Head-sampling probability in ``[0, 1]``: the fraction of traces
        committed to the ring.  Unsampled traces still compete for the
        exemplar heap, so tail outliers survive any rate.
    seed:
        Seeds both the head-sampling draw and the id streams — a fixed
        seed reproduces exactly which traces were kept.
    exemplars:
        How many slowest-K full trace trees to retain.
    proc:
        Process label stitched exports group by (``client``,
        ``worker:3``...).  Also salts the id streams, so give each
        recorder in a deployment a distinct name.
    """

    def __init__(
        self,
        capacity: int = 4096,
        *,
        sample_rate: float = 1.0,
        seed: int = 0,
        exemplars: int = 8,
        proc: str = "local",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.capacity = int(capacity)
        self.sample_rate = float(sample_rate)
        self.seed = int(seed)
        self.proc = str(proc)
        self.k_exemplars = int(exemplars)
        self._rng = random.Random(f"{self.seed}\x00{self.proc}\x00head")
        # ids: salted 64-bit base + counter → unique across recorders
        base = random.Random(f"{self.seed}\x00{self.proc}\x00ids").getrandbits(64)
        self._ids = itertools.count(base or 1)
        self._lock = threading.Lock()
        self._ring: list = [None] * self.capacity
        self._n = 0  # total spans ever committed
        self._n_traces = 0
        self._n_sampled = 0
        self._exemplars: list = []  # min-heap of (dur, seq, spans tuple)
        self._exseq = 0

    # -- id / trace creation ----------------------------------------------

    def _next_id(self) -> int:
        return next(self._ids) & 0xFFFFFFFFFFFFFFFF

    def trace(
        self,
        name: str,
        *,
        trace_id: int | None = None,
        parent_id: int = 0,
        sampled: bool | None = None,
        **meta,
    ) -> _Trace:
        """Open a new root trace (a ``with`` context).

        ``trace_id``/``parent_id``/``sampled`` are given when continuing
        a trace that arrived over the wire; otherwise a fresh id is
        drawn and the head-sampling decision is made here.
        """
        with self._lock:
            if trace_id is None:
                trace_id = self._rng.getrandbits(64) or 1
            if sampled is None:
                sampled = (
                    self.sample_rate >= 1.0
                    or self._rng.random() < self.sample_rate
                )
        return _Trace(self, name, trace_id, parent_id, sampled, meta)

    # -- commit / read back ------------------------------------------------

    def _commit(self, trace: _Trace) -> None:
        spans = trace.spans
        root_dur = trace.root.dur
        with self._lock:
            self._n_traces += 1
            if trace.sampled:
                self._n_sampled += 1
                ring, cap, n = self._ring, self.capacity, self._n
                for s in spans:
                    ring[n % cap] = s
                    n += 1
                self._n = n
            if self.k_exemplars > 0:
                entry = (root_dur, self._exseq, tuple(spans))
                self._exseq += 1
                if len(self._exemplars) < self.k_exemplars:
                    heapq.heappush(self._exemplars, entry)
                elif root_dur > self._exemplars[0][0]:
                    heapq.heapreplace(self._exemplars, entry)

    def spans(self) -> list:
        """Committed spans, oldest first (ring resolved)."""
        with self._lock:
            n, cap = self._n, self.capacity
            if n <= cap:
                return [s for s in self._ring[:n]]
            pos = n % cap
            return self._ring[pos:] + self._ring[:pos]

    def exemplars(self) -> list:
        """Slowest-K full trace trees, slowest first.

        Each entry: ``(root_duration_s, trace_id, [spans])``.
        """
        with self._lock:
            heap = sorted(self._exemplars, reverse=True)
        return [(dur, spans[-1].trace_id, list(spans))
                for dur, _, spans in heap]

    def stats(self) -> dict:
        """Aggregate committed spans by name: n / total_s / max_s."""
        agg: dict = {}
        for s in self.spans():
            row = agg.get(s.name)
            if row is None:
                agg[s.name] = [1, s.dur, s.dur]
            else:
                row[0] += 1
                row[1] += s.dur
                if s.dur > row[2]:
                    row[2] = s.dur
        return {
            name: {"n": n, "total_s": tot, "max_s": mx}
            for name, (n, tot, mx) in agg.items()
        }

    def summary(self) -> dict:
        """Counters + span stats + exemplars, JSON-safe (METRICS body)."""
        with self._lock:
            n_traces, n_sampled = self._n_traces, self._n_sampled
        return {
            "proc": self.proc,
            "traces": n_traces,
            "traces_sampled": n_sampled,
            "sample_rate": self.sample_rate,
            "capacity": self.capacity,
            "spans": self.stats(),
            "exemplars": [
                {
                    "trace_id": format(tid, "x"),
                    "dur_s": dur,
                    "spans": [span_to_json(s) for s in spans],
                }
                for dur, tid, spans in self.exemplars()
            ],
        }

    def spans_for(self, trace_id: int) -> list:
        """Every known span of one trace (ring + exemplar trees)."""
        out, seen = [], set()
        for s in self.spans():
            if s.trace_id == trace_id and s.span_id not in seen:
                seen.add(s.span_id)
                out.append(s)
        for _, tid, spans in self.exemplars():
            if tid == trace_id:
                for s in spans:
                    if s.span_id not in seen:
                        seen.add(s.span_id)
                        out.append(s)
        return out

    def clear(self) -> None:
        with self._lock:
            self._ring = [None] * self.capacity
            self._n = 0
            self._n_traces = 0
            self._n_sampled = 0
            self._exemplars = []
            self._exseq = 0

    def to_json(self) -> dict:
        """Full dump: the ``repro trace record`` file format."""
        return {
            "schema": 1,
            "proc": self.proc,
            "sample_rate": self.sample_rate,
            "spans": [span_to_json(s) for s in self.spans()],
            "exemplars": [
                {
                    "trace_id": format(tid, "x"),
                    "dur_s": dur,
                    "spans": [span_to_json(s) for s in spans],
                }
                for dur, tid, spans in self.exemplars()
            ],
        }


class _MaybeTrace:
    """Context wrapper used by :func:`traced` (root-or-child-or-noop)."""

    __slots__ = ("_cm",)

    def __init__(self, cm):
        self._cm = cm

    def __enter__(self):
        return self._cm.__enter__()

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)


def traced(recorder, name: str, **meta):
    """Span if a trace is active, else a root trace on ``recorder``.

    The hook for cold-path operations (ingest publish/recover) that may
    run either inside a traced request or standalone: inside a trace
    they become child spans; standalone with a recorder attached they
    become their own single-span trace; with neither, a no-op.
    """
    if getattr(_tls, "trace", None) is not None:
        return span(name, **meta)
    if recorder is not None:
        return _MaybeTrace(recorder.trace(name, **meta))
    return _NOOP_CTX
