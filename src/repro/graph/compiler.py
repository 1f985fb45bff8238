"""Compile a declared preprocessing graph to an executable plan.

``compile_graph`` runs the optimizer passes (unless ``optimize=False``),
extracts front-of-graph index/epoch filters as *prefilters* (applied to
the epoch order before the executor sees an index), and lowers the
remaining nodes to the concrete :class:`~repro.pipeline.ops.Op` chain a
:class:`~repro.pipeline.graph.Pipeline` runs.  The resulting
:class:`CompiledPlan` also knows its own cost shape
(:meth:`CompiledPlan.sample_cost`), which is how the tuner's
:func:`~repro.tune.costmodel.predict_throughput` scores candidate
rewrites against each other — naive versus optimized plans of the same
graph rank exactly as their measured throughputs do.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from repro.core.plugins.base import SampleCost, compose_steps
from repro.graph.ir import GraphNode, PipelineGraph
from repro.graph.passes import PassTrace, RewritePass, run_passes
from repro.pipeline.graph import Pipeline
from repro.pipeline.ops import (
    DecodeOp,
    LabelTransformOp,
    Op,
    PipelineItem,
    ReadOp,
)

__all__ = [
    "ElementwiseOp",
    "GraphFilterOp",
    "EpochConstOp",
    "PlanCostTerms",
    "CompiledPlan",
    "compose_steps",
    "compile_graph",
]

#: fields a predicate may read and still run before anything executes
_PREFILTER_FIELDS = frozenset({"index", "epoch"})


class ElementwiseOp(Op):
    """Lowered elementwise node: ufunc and/or dtype cast on the tensor."""

    def __init__(self, name: str, func, out_dtype=None) -> None:
        self.name = name
        self.func = func
        self.out_dtype = np.dtype(out_dtype) if out_dtype is not None else None

    def __call__(self, item: PipelineItem) -> PipelineItem:
        if item.tensor is None:
            raise ValueError(f"elementwise op {self.name!r} needs a tensor")
        out = item.tensor
        if self.func is not None:
            out = self.func(out)
        if self.out_dtype is not None:
            out = np.asarray(out).astype(self.out_dtype, copy=False)
        item.tensor = out
        return item


class GraphFilterOp(Op):
    """Lowered in-chain filter: marks dropped items via ``meta['dropped']``.

    The pipeline stops running later stages for a dropped item and the
    loader silently skips it (no quarantine — filtering is policy, not
    failure).
    """

    def __init__(self, name: str, predicate) -> None:
        self.name = name
        self.predicate = predicate

    def __call__(self, item: PipelineItem) -> PipelineItem:
        if not self.predicate(item):
            item.meta["dropped"] = True
        return item


class EpochConstOp(Op):
    """Lowered per-epoch-constant node, memoized when hoisted.

    Unhoisted (naive plans) it recomputes ``func(epoch)`` for every
    sample; hoisted it computes once per epoch under a lock and reuses
    the value — safe for any worker count since the value depends only
    on the epoch.
    """

    def __init__(self, name: str, func, meta_key: str, memoize: bool) -> None:
        self.name = name
        self.func = func
        self.meta_key = meta_key
        self.memoize = memoize
        self._cache: dict[int, object] = {}
        self._lock = threading.Lock()
        self.evaluations = 0  # diagnostics: how often func actually ran

    def _value(self, epoch: int):
        if not self.memoize:
            self.evaluations += 1
            return self.func(epoch)
        with self._lock:
            if epoch not in self._cache:
                self._cache[epoch] = self.func(epoch)
                self.evaluations += 1
            return self._cache[epoch]

    def __call__(self, item: PipelineItem) -> PipelineItem:
        epoch = item.meta.get("epoch", 0)
        item.meta[self.meta_key] = self._value(epoch)
        return item


@dataclass(frozen=True)
class PlanCostTerms:
    """How a compiled plan reshapes the per-delivered-sample cost.

    ``read_inflation``/``decode_inflation`` are ``1/Π selectivity`` of
    the in-chain filters that run *after* the respective stage: a filter
    left after decode means every delivered sample pays for ``1/s``
    reads and decodes, while a hoisted prefilter inflates nothing.
    ``extra_passes`` counts remaining elementwise/const work in full
    passes over the decoded tensor (fused steps charge their own hint
    scaled by the decode's ``fused_cost_hint`` — the table fraction for
    LUT decode, 1.0 for a post-transform fusion).

    ``batch_overhead`` is the decode node's declared fixed per-launch
    cost fraction: a batched decode of ``B`` samples pays it once, so
    :meth:`CompiledPlan.sample_cost` scales decode work by
    ``1 - f + f/B`` (the batch-amortization curve; ``f = 0`` leaves
    batching cost-neutral, matching the scalar executor).
    """

    read_inflation: float = 1.0
    decode_inflation: float = 1.0
    extra_passes: float = 0.0
    hoisted: int = 0
    batch_overhead: float = 0.0

    def to_json(self) -> dict:
        return {
            "read_inflation": self.read_inflation,
            "decode_inflation": self.decode_inflation,
            "extra_passes": self.extra_passes,
            "hoisted": self.hoisted,
            "batch_overhead": self.batch_overhead,
        }


@dataclass
class CompiledPlan:
    """An executable lowering of a (possibly optimized) graph."""

    graph: PipelineGraph  # post-pass chain (prefilters removed)
    source_graph: PipelineGraph  # as declared
    ops: list[Op]
    prefilters: list[GraphNode]
    trace: PassTrace
    optimized: bool
    device: object | None = None
    terms: PlanCostTerms = dc_field(default_factory=PlanCostTerms)

    def pipeline(self, extra_ops: Sequence[Op] | None = None) -> Pipeline:
        """A fresh executable pipeline for this plan."""
        return Pipeline(list(self.ops) + list(extra_ops or []))

    # ------------------------------------------------------------------
    # prefilters
    # ------------------------------------------------------------------

    def admit(self, index: int, epoch: int) -> bool:
        """Do the hoisted prefilters admit this sample?"""
        if not self.prefilters:
            return True
        item = PipelineItem(index=int(index), meta={"epoch": int(epoch)})
        return all(n.predicate(item) for n in self.prefilters)

    def filter_order(self, indices, epoch: int) -> np.ndarray:
        """Apply prefilters to an epoch traversal order."""
        order = np.asarray(indices, dtype=np.int64)
        if not self.prefilters:
            return order
        keep = [i for i in order.tolist() if self.admit(i, epoch)]
        return np.asarray(keep, dtype=np.int64)

    # ------------------------------------------------------------------
    # cost-model view
    # ------------------------------------------------------------------

    def sample_cost(
        self, base: SampleCost, sample_elems: int, batch_size: int = 1
    ) -> SampleCost:
        """Rewrite a measured per-sample cost into this plan's shape.

        ``base`` is the representation's cost in its fully-fused form
        (what ``plugin.measure`` reports); the plan adds back whatever
        work it did *not* optimize away, which is exactly what lets
        :func:`~repro.tune.costmodel.predict_throughput` rank candidate
        plans of the same graph.

        ``batch_size`` applies the decode node's declared
        batch-amortization: with fixed-fraction ``f = batch_overhead``,
        a vectorized decode of ``B`` samples costs each sample
        ``1 - f + f/B`` of its scalar decode (``B = 1`` reproduces the
        scalar cost exactly).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        t = self.terms
        f = t.batch_overhead
        amortize = 1.0 - f + f / batch_size
        extra_elems = t.extra_passes * sample_elems
        return SampleCost(
            stored_bytes=int(round(base.stored_bytes * t.read_inflation)),
            h2d_bytes=base.h2d_bytes,
            decoded_bytes=base.decoded_bytes,
            cpu_preprocess_elems=int(
                round(base.cpu_preprocess_elems * t.decode_inflation * amortize
                      + extra_elems)
            ),
            gpu_decode_seconds=(
                base.gpu_decode_seconds * t.decode_inflation * amortize
            ),
        )

    def describe(self) -> str:
        head = "optimized" if self.optimized else "naive"
        lines = [f"plan[{head}] {self.graph.describe()}"]
        if self.prefilters:
            lines.append(
                "  prefilters: "
                + ", ".join(n.name for n in self.prefilters)
            )
        for a in self.trace.actions:
            lines.append(f"  [{a.pass_name}] {a.detail}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "optimized": self.optimized,
            "graph": self.graph.to_json(),
            "prefilters": [n.name for n in self.prefilters],
            "stages": [op.name for op in self.ops],
            "trace": self.trace.to_json(),
            "cost_terms": self.terms.to_json(),
        }


def _plan_terms(
    chain: list[GraphNode], prefilters: list[GraphNode]
) -> PlanCostTerms:
    """Derive cost terms from the final chain (prefilters inflate nothing)."""
    # suffix product of filter selectivities: inflation of work at
    # position i is 1/Π(selectivity of filters after i)
    suffix = [1.0] * (len(chain) + 1)
    for i in range(len(chain) - 1, -1, -1):
        s = suffix[i + 1]
        if chain[i].kind == "filter":
            s *= chain[i].attrs.selectivity
        suffix[i] = s

    def inflation(i: int) -> float:
        return 1.0 / suffix[i + 1]

    read_inflation = decode_inflation = 1.0
    extra = 0.0
    hoisted = 0
    batch_overhead = 0.0
    for i, node in enumerate(chain):
        if node.kind == "read":
            read_inflation = inflation(i)
        elif node.kind == "decode":
            decode_inflation = inflation(i)
            batch_overhead = node.attrs.batch_overhead
            extra += (
                sum(s.cost_hint for s in node.fused_steps)
                * node.attrs.fused_cost_hint
                * inflation(i)
            )
        elif node.kind == "elementwise":
            extra += node.attrs.cost_hint * inflation(i)
        elif node.kind == "epoch_const":
            if node.hoisted:
                hoisted += 1
            else:
                extra += node.attrs.cost_hint * inflation(i)
    if math.isinf(read_inflation) or math.isinf(decode_inflation):
        raise ValueError("filter selectivity product underflowed to zero")
    return PlanCostTerms(
        read_inflation=read_inflation,
        decode_inflation=decode_inflation,
        extra_passes=extra,
        hoisted=hoisted,
        batch_overhead=batch_overhead,
    )


def _lower(node: GraphNode, device) -> Op:
    if node.kind == "read":
        op = ReadOp(node.source, verify=node.verify)
        op.name = node.name
        return op
    if node.kind == "decode":
        op = DecodeOp(
            node.plugin,
            compose_steps(node.fused_steps),
            None if node.device == "cpu" else device,
        )
        op.name = node.name
        return op
    if node.kind == "elementwise":
        return ElementwiseOp(node.name, node.func, node.out_dtype)
    if node.kind == "label":
        op = LabelTransformOp(node.func)
        op.name = node.name
        return op
    if node.kind == "filter":
        return GraphFilterOp(node.name, node.predicate)
    if node.kind == "epoch_const":
        return EpochConstOp(node.name, node.func, node.meta_key, node.hoisted)
    if node.kind == "op":
        return node.op
    raise ValueError(f"cannot lower node kind {node.kind!r}")


def compile_graph(
    graph: PipelineGraph,
    optimize: bool = True,
    passes: tuple[RewritePass, ...] | None = None,
    device=None,
) -> CompiledPlan:
    """Lower a declared graph to a :class:`CompiledPlan`.

    ``optimize=False`` compiles the graph exactly as declared (the
    *naive* plan — the differential baseline and the cost model's
    comparison point).  ``device`` is the runtime
    :class:`~repro.accel.device.SimulatedGpu` handed to decode ops,
    unless a placement pass pinned the decode node to the CPU.
    """
    source = graph.copy()
    source.validate()
    trace = PassTrace()
    worked = graph.copy()
    if optimize:
        worked, trace = run_passes(worked, passes, trace)
    worked.validate()

    chain = list(worked.nodes)
    prefilters: list[GraphNode] = []
    if optimize:
        # leading index/epoch filters never need the executor at all
        while (
            chain
            and chain[0].kind == "filter"
            and chain[0].reads <= _PREFILTER_FIELDS
        ):
            node = chain.pop(0)
            prefilters.append(node)
            trace.record(
                "prefilter", f"hoisted '{node.name}' out of the executor"
            )

    ops = [_lower(n, device) for n in chain]
    if not ops:
        raise ValueError("compiled plan has no executable stages")
    return CompiledPlan(
        graph=PipelineGraph(worked.name, chain),
        source_graph=source,
        ops=ops,
        prefilters=prefilters,
        trace=trace,
        optimized=optimize,
        device=device,
        terms=_plan_terms(chain, prefilters),
    )
