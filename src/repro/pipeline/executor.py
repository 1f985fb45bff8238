"""Threaded prefetch executor.

DALI's value is overlapping sample preparation with training compute; this
executor reproduces that with worker threads pulling *groups* of indices
from a work queue and a bounded, *order-preserving* output buffer
(determinism matters: the convergence experiments must be replayable
bit-for-bit).  NumPy releases the GIL inside the heavy decode kernels, so
threads genuinely overlap even on CPython.  The group size is the only
thing that distinguishes scalar from batched fetch, and the worker count
the only thing that distinguishes inline from threaded preparation — it is
one loop either way.

Failure isolation: a worker exception never wedges the output buffer — it
is recorded at the failing item's position and surfaces to the consumer
exactly when that position is reached, tagged with the failing sample
index (``exc.sample_index``).  With ``on_error="yield"`` the failure is
handed over as a :class:`FailedItem` instead of raised, which is how the
loader implements skip/substitute policies without losing its place in the
epoch; the remaining workers keep running either way and shut down cleanly
when the generator closes.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import traceback as _tb
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, Sequence

from repro.pipeline.graph import Pipeline
from repro.pipeline.ops import PipelineItem
from repro.tune.stats import StatsRegistry

__all__ = ["PrefetchExecutor", "FailedItem"]

_SENTINEL = object()


@dataclass(frozen=True)
class FailedItem:
    """A pipeline failure delivered in-band (``on_error="yield"``).

    The live exception is kept for in-process policy decisions, but many
    exceptions don't survive serialization (pickling across a process
    pool, JSON fuzz/conformance reports), so the portable description —
    ``error_repr`` and the formatted ``traceback`` — is captured eagerly
    at construction time.  :meth:`to_json` is the stable wire form.
    """

    index: int
    error: Exception
    error_repr: str = ""
    traceback: str = ""
    #: id of the span tree that recorded this sample's failing fetch
    #: (0 = untraced).  The traced pipeline tags exceptions with the
    #: active trace id as they unwind, so the link needs no plumbing at
    #: the construction sites.
    trace_id: int = 0

    def __post_init__(self) -> None:
        if not self.error_repr:
            object.__setattr__(self, "error_repr", repr(self.error))
        if not self.traceback and self.error.__traceback__ is not None:
            object.__setattr__(
                self,
                "traceback",
                "".join(_tb.format_exception(
                    type(self.error), self.error, self.error.__traceback__
                )),
            )
        if not self.trace_id:
            object.__setattr__(
                self, "trace_id", getattr(self.error, "trace_id", 0) or 0
            )

    def to_json(self) -> dict:
        """JSON-safe description (no live exception object)."""
        return {
            "index": self.index,
            "error": self.error_repr,
            "traceback": self.traceback,
            "trace_id": format(self.trace_id, "x") if self.trace_id else None,
        }


class PrefetchExecutor:
    """Run a pipeline over an index sequence with prefetching workers.

    One loop serves every mode: the epoch's indices are cut into *groups*
    of ``fetch_batch_size`` consecutive positions, each group is prepared
    by one :meth:`Pipeline.run_batch` call — inline, or on a worker
    thread inside a bounded admission window — and one consumer delivers
    the results item by item, in order, and keeps all the counters.

    Parameters
    ----------
    pipeline:
        The operator chain (shared across workers; operators must be
        thread-safe, which the provided ones are — decode creates fresh
        arrays per item).
    num_workers:
        Worker threads.  ``0`` prepares each group in the caller's thread
        (useful for debugging and for the time-attribution runs, where
        overlap would muddy per-stage numbers).
    prefetch_depth:
        Bound on prepared-but-unconsumed *groups*, limiting memory to
        ``prefetch_depth * fetch_batch_size`` samples exactly like DALI's
        queue depth.
    stats:
        Optional :class:`~repro.tune.stats.StatsRegistry` receiving
        ``executor.groups`` (count = ``run_batch`` calls, total =
        producer busy seconds), ``executor.items`` (count + each item's
        share of its group's busy seconds), ``executor.failed`` and
        ``executor.wait`` (seconds the consumer was blocked on the next
        in-order group — the starvation signal the adaptive tuner acts
        on; with ``num_workers=0`` the consumer *is* the producer, so all
        preparation time counts as wait).  All updates happen on the
        consumer thread, so the counters are exact with any worker count.
    fetch_batch_size:
        Group size.  ``1`` is scalar mode (``source.read`` +
        ``plugin.decode`` per sample); with ``B > 1`` each group costs
        one batched fetch (``read_batch_slots``: one wire round-trip /
        one seek pass) and one ``decode_group`` call.  Per-slot
        failures are delivered exactly like scalar-mode failures, and a
        ``run_batch`` call that raises as a whole fails every slot of
        that group only.  Results are bit-identical across group sizes by
        the batch plane's contract.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        num_workers: int = 2,
        prefetch_depth: int = 4,
        stats: StatsRegistry | None = None,
        fetch_batch_size: int = 1,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        if fetch_batch_size < 1:
            raise ValueError("fetch_batch_size must be >= 1")
        self.pipeline = pipeline
        self.num_workers = num_workers
        self.prefetch_depth = prefetch_depth
        self.stats = stats
        self.fetch_batch_size = fetch_batch_size

    def run(
        self, indices: Sequence[int], epoch: int = 0, on_error: str = "raise"
    ) -> Iterator[PipelineItem | FailedItem]:
        """Yield processed items in the order of ``indices``.

        ``on_error="raise"`` (default) re-raises a sample's exception at
        its position with ``sample_index`` attached;
        ``on_error="yield"`` delivers it as a :class:`FailedItem` and
        continues with the next index.
        """
        if on_error not in ("raise", "yield"):
            raise ValueError(f"on_error must be 'raise' or 'yield', got {on_error!r}")
        indices = list(indices)
        B = self.fetch_batch_size
        groups = [indices[i:i + B] for i in range(0, len(indices), B)]
        # uninstrumented runs count into a throwaway registry: one code path
        st = self.stats if self.stats is not None else StatsRegistry()
        s_groups = st.stat("executor.groups")
        s_items = st.stat("executor.items")
        s_wait = st.stat("executor.wait")
        s_failed = st.stat("executor.failed")
        with contextlib.closing(self._prepared(groups, epoch)) as prepared:
            for group, (results, busy, waited) in zip(groups, prepared):
                s_groups.add(busy)
                if waited is not None:
                    s_wait.add(waited)
                share = busy / len(group)
                for idx, result in zip(group, results):
                    if isinstance(result, Exception):
                        s_failed.add()
                        if on_error == "raise":
                            result.sample_index = idx  # type: ignore[attr-defined]
                            raise result
                        result = FailedItem(index=idx, error=result)
                    else:
                        s_items.add(share)
                    yield result

    def _prepared(self, groups: list[list[int]], epoch: int):
        """Yield ``(results, busy_s, waited_s)`` per group, in order.

        ``waited_s`` is how long the consumer was blocked on the group
        (``None``: it was already there).  Workers may run at most
        ``prefetch_depth`` groups ahead of the consumer.
        """

        def prepare(group: list[int]) -> tuple[list, float]:
            t0 = perf_counter()
            try:
                results = self.pipeline.run_batch(group, epoch)
            except Exception as exc:  # noqa: BLE001 — fails this group only
                results = [exc] * len(group)
            return results, perf_counter() - t0

        if self.num_workers == 0:
            for group in groups:
                results, busy = prepare(group)
                yield results, busy, busy
            return

        work: queue.Queue = queue.Queue()
        done: dict[int, tuple[list, float]] = {}
        done_lock = threading.Condition()
        window = threading.Semaphore(self.prefetch_depth)
        for task in enumerate(groups):
            work.put(task)
        for _ in range(self.num_workers):
            work.put(_SENTINEL)

        def worker() -> None:
            while True:
                # Acquire the admission slot BEFORE taking a task: slots
                # then always belong to the oldest pending tasks, so the
                # consumer (which frees a slot per consumed group) can
                # never be stranded waiting on a task no slot remains for.
                window.acquire()
                task = work.get()
                if task is _SENTINEL:
                    window.release()
                    return
                pos, group = task
                prepared = prepare(group)  # outside the lock
                with done_lock:
                    done[pos] = prepared
                    done_lock.notify_all()

        threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(self.num_workers)
        ]
        for t in threads:
            t.start()
        try:
            for pos in range(len(groups)):
                waited = None
                with done_lock:
                    if pos not in done:
                        t0 = perf_counter()
                        while pos not in done:
                            done_lock.wait()
                        waited = perf_counter() - t0
                    results, busy = done.pop(pos)
                window.release()
                yield results, busy, waited
        finally:
            # Early close: drain pending tasks, then unblock every worker —
            # whether parked on the admission semaphore or on the work
            # queue — with a sentinel + slot each.
            try:
                while True:
                    work.get_nowait()
            except queue.Empty:
                pass
            for _ in range(self.num_workers):
                work.put(_SENTINEL)
                window.release()
            for t in threads:
                t.join(timeout=5.0)
