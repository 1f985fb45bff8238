"""Linear operator pipeline with per-stage time attribution.

This is the *execution* layer: an ordered op chain applied to a group of
sample indices (:meth:`Pipeline.run_batch`, the only stage walker;
:meth:`Pipeline.run` is a group of one).  Chains come from a compiled
preprocessing graph (:func:`repro.graph.compiler.compile_graph`), which is
where fusion and reordering decisions are made — the pipeline just runs
what it is given, skipping the remaining stages of an item a filter stage
dropped or an earlier stage failed.

Timing is safe under the threaded executor: each worker thread
accumulates into its *own* :class:`~repro.util.timing.Stopwatch`
(registered once per thread), and readers merge the per-worker
accumulators on demand — so stage totals are not racy and no lock sits
on the per-sample hot path.
"""

from __future__ import annotations

import threading

from repro.observe import trace as observe
from repro.pipeline.ops import Op, PipelineItem
from repro.util.timing import Stopwatch

__all__ = ["Pipeline"]


class Pipeline:
    """An ordered chain of operators applied to groups of sample indices.

    The paper's plugins slot into DALI pipelines; here the chain is explicit
    and every stage's wall-clock time is accumulated per worker thread,
    giving the functional analogue of the CPU-timeline breakdowns in
    Figures 9/12 (merged view via :attr:`stopwatch`/:meth:`stage_times`).
    """

    def __init__(self, ops: list[Op]) -> None:
        if not ops:
            raise ValueError("pipeline needs at least one operator")
        names = [op.name for op in ops]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in pipeline: {names}")
        self.ops = list(ops)
        self._tls = threading.local()
        self._watches: list[Stopwatch] = []
        self._watch_lock = threading.Lock()
        self._flushed: dict[str, tuple[int, float]] = {}
        #: optional :class:`repro.observe.TraceRecorder` — when attached
        #: (``DataLoader(trace=...)``), every sample records a
        #: ``loader.fetch`` span tree; the trace starts here, on the
        #: worker thread that runs the sample, so source wrappers deeper
        #: in the chain land their spans in the right tree
        self.trace = None

    def _thread_watch(self) -> Stopwatch:
        """This thread's private stopwatch (created and registered once)."""
        watch = getattr(self._tls, "watch", None)
        if watch is None:
            watch = Stopwatch()
            with self._watch_lock:
                self._watches.append(watch)
            self._tls.watch = watch
        return watch

    @property
    def stopwatch(self) -> Stopwatch:
        """Merged view of every worker's accumulators (a fresh copy)."""
        merged = Stopwatch()
        with self._watch_lock:
            watches = list(self._watches)
        for watch in watches:
            merged.merge(watch)
        return merged

    def run(self, index: int, epoch: int = 0) -> PipelineItem:
        """Process one sample: a group of one, its failure re-raised."""
        (result,) = self.run_batch([index], epoch)
        if isinstance(result, Exception):
            raise result
        return result

    def run_batch(self, indices, epoch: int = 0) -> list:
        """Walk a group of samples through every stage.

        Returns one entry per index, aligned with ``indices``: the
        processed :class:`PipelineItem`, or the ``Exception`` that sample
        raised (slot-isolated — one bad sample never sinks its
        group-mates; the executor wraps exceptions into ``FailedItem``).

        Each stage sees the group's surviving items in one
        :meth:`Op.run_group` call, so a stage that can amortize across
        samples does (``ReadOp``: one batched fetch, ``DecodeOp``: one
        ``decode_group`` call) whatever chain it sits in — batching changes
        when fixed costs are paid, never a result bit.  A slot leaves the
        walk when its stage fails it or a compiled filter sets
        ``item.meta['dropped']`` (the item comes back marked and the
        loader drops it from the epoch).

        With a recorder attached the whole group is one ``loader.fetch``
        trace — keyed by ``index`` for a group of one, by ``batch`` size
        otherwise — holding one child span per stage; failures are tagged
        with its id, which is how ``FailedItem.trace_id`` gets set.
        """
        results: list = [
            PipelineItem(index=int(i), meta={"epoch": epoch}) for i in indices
        ]
        if len(results) == 1:
            root = {"index": results[0].index, "epoch": epoch}
        else:
            root = {"epoch": epoch, "batch": len(results)}
        watch = self._thread_watch()
        with observe.traced(self.trace, "loader.fetch", **root):
            trace_id = observe.current_trace_id()
            live = list(range(len(results)))
            for op in self.ops:
                if not live:
                    break
                with watch.measure(op.name), observe.span(op.name):
                    outs = op.run_group([results[j] for j in live])
                # stage counts mean "items through the stage"
                watch.counts[op.name] += len(live) - 1
                flowing = []
                for j, out in zip(live, outs):
                    results[j] = out
                    if not isinstance(out, Exception):
                        if not out.meta.get("dropped"):
                            flowing.append(j)
                    elif trace_id and not getattr(out, "trace_id", 0):
                        out.trace_id = trace_id
                live = flowing
        return results

    def stage_times(self) -> dict[str, float]:
        """Accumulated seconds per stage since construction (all workers)."""
        return dict(self.stopwatch.totals)

    def flush_stage_stats(self, stats) -> dict[str, float]:
        """Publish per-stage deltas since the last flush into a registry.

        Adds a ``pipeline.<stage>`` counter per stage to ``stats``
        (count = items through the stage, total = seconds), so stage
        attribution shows up in ``repro stats --json`` next to the
        executor/loader counters instead of living only on this object.
        Returns the seconds flushed per stage.
        """
        merged = self.stopwatch
        flushed: dict[str, float] = {}
        for name, total in merged.totals.items():
            n = merged.counts.get(name, 0)
            last_n, last_total = self._flushed.get(name, (0, 0.0))
            dn, dt = n - last_n, total - last_total
            if dn > 0 or dt > 0:
                stats.stat(f"pipeline.{name}").add(dt, dn)
                self._flushed[name] = (n, total)
                flushed[name] = dt
        return flushed
