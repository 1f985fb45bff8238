"""DataLoader facade: pipeline + shuffling + batching.

This is the piece the paper swaps out: "only the data feeding module in
both applications needs to be modified, while the model and its interface
to the data feeder is maintained."  The loader yields ``(batch, labels)``
NumPy arrays ready for the training loop regardless of which plugin
(baseline or optimized, CPU- or GPU-placed) prepared the samples.

Fault handling: ``bad_sample_policy`` decides what a failed read/decode
does to the epoch — ``"raise"`` stops training (the exception carries the
failing sample index), ``"skip"`` drops the sample, ``"substitute"``
replaces it with the most recent good sample so batch geometry is
preserved.  Either way the failure is quarantined
(:class:`~repro.robust.quarantine.QuarantineLog`) with its error and
epoch, so a completed run still reports exactly which samples were bad.

Graceful degradation: an error tagged ``degraded = True`` (a cluster
brown-out — :class:`~repro.cluster.client.NoReplicaError`, raised when
every replica of a sample's range is dead or shedding) is additionally
counted as ``loader.degraded`` in :attr:`DataLoader.stats`, so a run
report distinguishes "the service browned out" from "the data is bad".
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterator

import numpy as np

from repro.accel.device import SimulatedGpu
from repro.core.plugins.base import SamplePlugin
from repro.pipeline.executor import FailedItem, PrefetchExecutor
from repro.pipeline.ops import Op, PipelineItem
from repro.pipeline.sources import SampleSource
from repro.robust.quarantine import QuarantineLog
from repro.tune.stats import StatsRegistry
from repro.util.rng import make_rng

__all__ = ["DataLoader", "BAD_SAMPLE_POLICIES"]

BAD_SAMPLE_POLICIES = ("raise", "skip", "substitute")

#: sentinel distinguishing "not passed" from an explicit None
_UNSET = object()


class DataLoader:
    """Epoch iterator over batches.

    Parameters
    ----------
    source:
        Where encoded sample blobs come from.
    plugin:
        The decoder plugin (decides representation and placement).
    batch_size:
        Samples per yielded batch; a trailing partial batch is yielded too.
    shuffle:
        Random per-epoch traversal (CosmoFlow/DeepCAM both shuffle).
    seed:
        Base seed; epoch ``e`` shuffles with ``seed + e`` so every rerun of
        the same schedule is identical.
    device:
        Simulated GPU for GPU-placed plugins.
    extra_ops:
        Operators inserted after decode (augmentation, label transforms).
    num_workers / prefetch_depth:
        Forwarded to :class:`PrefetchExecutor`.
    drop_last:
        Discard a trailing partial batch (data-parallel training needs
        every step's global batch divisible by the rank count).
    bad_sample_policy:
        ``"raise"`` (default) propagates the first failure with its sample
        index attached; ``"skip"`` drops failed samples from the epoch;
        ``"substitute"`` repeats the most recent good sample in their
        place (falling back to a skip before the first good one).
        Non-raise policies quarantine every failure.
    verify_reads:
        Checksum-verify each blob right after the read stage (container v2
        integrity; v1 blobs pass unchecked).
    order_fn:
        Optional ``epoch -> sequence of sample indices`` override of the
        epoch traversal.  Used by data-service clients to walk the shard a
        :class:`~repro.serve.coordination.ShardPlan` assigned to this rank
        (the shard is already shuffled, so ``shuffle`` is ignored when
        this is set).
    graph:
        The preprocessing graph to compile and execute (the loader
        always runs a :class:`~repro.graph.compiler.CompiledPlan`,
        :attr:`plan`).  ``None`` (default) or ``True`` compiles the
        plugin's own ``declare_preprocessing()`` declaration — one plan
        source, whose optimized plan fuses the plugin's chain back into
        one ``decode_group`` call; a
        :class:`~repro.graph.ir.PipelineGraph` compiles that graph.
        Hoisted prefilters are applied to the epoch order (held-out
        samples are never read), in-chain filters drop items silently
        (no quarantine), and ``extra_ops`` still append after the
        compiled stages.  ``__len__`` ignores filters — an epoch with
        prefilters yields fewer batches than ``len(loader)``.
    optimize_graph:
        With ``graph``: run the optimizer passes (default) or compile
        the declaration verbatim (the naive plan, for differential
        comparisons).
    batched_fetch:
        Make ``batch_size`` the executor's group size
        (``fetch_batch_size``; otherwise 1), so each training batch
        costs one batched read (one wire round-trip against a remote
        source) and one ``decode_group`` call (one vectorized
        multi-sample decode) instead of ``batch_size`` scalar ones.
        Bit-identical to group size 1 by the batch plane's contract
        (``check_batch_equivalence``); failure semantics
        (``bad_sample_policy``, quarantine, degraded accounting) are
        unchanged because failures are delivered per slot.  See
        docs/batching.md.
    trace:
        Optional :class:`repro.observe.TraceRecorder`: record every
        sample's fetch as a ``loader.fetch`` span tree (sampled per the
        recorder's knobs), with whatever the read path crossed —
        retries, tiers, cache, wire round-trips — as child spans.  See
        docs/observability.md.
    """

    def __init__(
        self,
        source: SampleSource,
        plugin: SamplePlugin,
        batch_size: int = 1,
        shuffle: bool = True,
        seed: int = 0,
        device: SimulatedGpu | None = None,
        extra_ops: list[Op] | None = None,
        num_workers: int = 0,
        prefetch_depth: int = 4,
        drop_last: bool = False,
        bad_sample_policy: str = "raise",
        verify_reads: bool = False,
        stats: StatsRegistry | None = None,
        order_fn=None,
        graph=None,
        optimize_graph: bool = True,
        batched_fetch: bool = False,
        trace=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if bad_sample_policy not in BAD_SAMPLE_POLICIES:
            raise ValueError(
                f"bad_sample_policy must be one of {BAD_SAMPLE_POLICIES}, "
                f"got {bad_sample_policy!r}"
            )
        self.source = source
        self.plugin = plugin
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.seed = seed
        self.drop_last = drop_last
        self.bad_sample_policy = bad_sample_policy
        self.device = device
        self.order_fn = order_fn
        self.stats = stats if stats is not None else StatsRegistry()
        self.quarantine = QuarantineLog()
        from repro.graph.compiler import compile_graph

        if graph is None or isinstance(graph, bool):
            graph = plugin.declare_preprocessing(
                source, verify_reads=verify_reads
            )
        #: the :class:`~repro.graph.compiler.CompiledPlan` being executed
        self.plan = compile_graph(
            graph, optimize=optimize_graph, device=device
        )
        self.pipeline = self.plan.pipeline(extra_ops)
        #: optional :class:`repro.observe.TraceRecorder`; spans originate
        #: on the pipeline (worker threads), survive :meth:`reconfigure`
        #: with the pipeline, and never alter results — a traced epoch is
        #: bit-identical to an untraced one (bench_trace_overhead.py)
        self.trace = trace
        self.pipeline.trace = trace
        self.batched_fetch = bool(batched_fetch)
        self.executor = PrefetchExecutor(
            self.pipeline,
            num_workers=num_workers,
            prefetch_depth=prefetch_depth,
            stats=self.stats,
            fetch_batch_size=batch_size if self.batched_fetch else 1,
        )

    def reconfigure(
        self,
        num_workers: int | None = None,
        prefetch_depth: int | None = None,
        batch_size: int | None = None,
        order_fn=_UNSET,
    ) -> None:
        """Swap in a new executor with different worker/queue settings.

        The pipeline, stats registry and quarantine log are kept, so an
        online tuner (:class:`repro.tune.AdaptiveController`) can change
        these knobs between epochs without losing accumulated state.
        ``batch_size`` also retunes the fetch granularity when the
        loader was built with ``batched_fetch=True`` (how ``tune()``'s
        chosen batch size takes effect).  Passing ``order_fn`` replaces
        the epoch-traversal override (``None`` restores the built-in
        shuffle) — how a training client adopts a *grown* epoch order
        between epochs when its data service publishes new snapshot
        manifests (:meth:`repro.serve.client.RemoteSource.manifest_order_fn`).
        Takes effect from the next :meth:`batches` call.
        """
        if order_fn is not _UNSET:
            self.order_fn = order_fn
        if batch_size is not None:
            if batch_size < 1:
                raise ValueError("batch_size must be >= 1")
            self.batch_size = batch_size
        self.executor = PrefetchExecutor(
            self.pipeline,
            num_workers=(
                self.executor.num_workers if num_workers is None else num_workers
            ),
            prefetch_depth=(
                self.executor.prefetch_depth
                if prefetch_depth is None
                else prefetch_depth
            ),
            stats=self.stats,
            fetch_batch_size=self.batch_size if self.batched_fetch else 1,
        )

    def __len__(self) -> int:
        """Number of batches per epoch (ignoring quarantined samples)."""
        n = len(self.source)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def epoch_order(self, epoch: int) -> np.ndarray:
        """The (possibly shuffled) traversal order for one epoch.

        When a compiled plan hoisted prefilters, they apply here — the
        executor never sees a held-out index, so a reordered filter
        saves the read, not just the downstream stages.
        """
        if self.order_fn is not None:
            order = np.asarray(self.order_fn(epoch), dtype=np.int64)
        else:
            order = np.arange(len(self.source))
            if self.shuffle:
                make_rng(self.seed + epoch).shuffle(order)
        return self.plan.filter_order(order, epoch)

    def batches(self, epoch: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(stacked_tensors, stacked_labels)`` for one epoch.

        The epoch's wall-clock is recorded as ``loader.epoch`` (and each
        yielded batch as ``loader.batches``) in :attr:`stats` — together
        with the executor's counters this is what the adaptive controller
        reads between epochs.
        """
        t_start = perf_counter()
        try:
            yield from self._batches(epoch)
        finally:
            self.stats.add("loader.epoch", perf_counter() - t_start)
            # per-stage wall-clock attribution lands in the registry as
            # ``pipeline.<stage>`` counters (repro stats --json)
            self.pipeline.flush_stage_stats(self.stats)

    def _batches(self, epoch: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        order = self.epoch_order(epoch)
        on_error = "raise" if self.bad_sample_policy == "raise" else "yield"
        last_good: PipelineItem | None = None
        pending_t: list[np.ndarray] = []
        pending_l: list[np.ndarray] = []
        for item in self.executor.run(order.tolist(), epoch=epoch, on_error=on_error):
            if isinstance(item, FailedItem):
                if getattr(item.error, "degraded", False):
                    # cluster brown-out (every replica down/shedding), not
                    # data corruption — count it so operators can tell a
                    # degraded epoch from a corrupt dataset
                    self.stats.add("loader.degraded")
                if self.bad_sample_policy == "substitute" and last_good is not None:
                    self.quarantine.record(
                        item.index, epoch, item.error, "substituted"
                    )
                    pending_t.append(last_good.tensor)
                    pending_l.append(last_good.label)
                else:
                    self.quarantine.record(item.index, epoch, item.error, "skipped")
                    continue
            else:
                if item.meta.get("dropped"):
                    # filtered by an in-chain graph filter: policy, not
                    # failure — drop silently, no quarantine
                    self.stats.add("loader.filtered")
                    continue
                last_good = item
                pending_t.append(item.tensor)
                pending_l.append(item.label)
            if len(pending_t) == self.batch_size:
                self.stats.add("loader.batches")
                yield np.stack(pending_t), np.stack(pending_l)
                pending_t, pending_l = [], []
        if pending_t and not self.drop_last:
            self.stats.add("loader.batches")
            yield np.stack(pending_t), np.stack(pending_l)

    def stage_times(self) -> dict[str, float]:
        """Accumulated per-stage wall-clock seconds (Fig 9/12 analogue)."""
        return self.pipeline.stage_times()

    def robust_stats(self) -> dict[str, object]:
        """Fault-handling counters for run reports.

        Includes quarantine totals and, when the source chain exposes them
        (``RetryingSource``/``FaultInjector`` decorators), retry and
        injection statistics.
        """
        stats: dict[str, object] = {
            "quarantined": len(self.quarantine),
            "quarantined_ids": self.quarantine.ids(),
            **{
                f"quarantine_{k}": v
                for k, v in self.quarantine.counts_by_action().items()
            },
        }
        src = self.source
        while src is not None:
            own = getattr(src, "stats", None)
            if own is not None:
                stats.setdefault(type(src).__name__, own)
            src = getattr(src, "inner", None)
        return stats
