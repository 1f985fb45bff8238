"""Optimizer passes over a declared preprocessing graph.

Each pass is a :class:`RewritePass` mapping one :class:`PipelineGraph`
to a rewritten copy and recording what it did in a :class:`PassTrace`.
The default pipeline is

1. :class:`DeadOpElimination` — drop identity stages and pure stages
   whose outputs nothing consumes;
2. :class:`FilterReorder` — move each filter as early as its declared
   field reads allow, so cheap predicates run before expensive
   expansion (and, when they read only ``index``/``epoch``, before any
   byte is read at all);
3. :class:`EpochConstantHoist` — mark per-epoch-constant work for
   once-per-epoch memoized evaluation;
4. :class:`ElementwiseFusion` — compose a trailing chain of pure
   elementwise stages into the decode node, generalizing the paper's
   ``log1p``+FP16-on-the-LUT-table trick to any declared ufunc chain.

Every rewrite is semantics-preserving *bit-for-bit* on surviving
samples: elementwise operators commute exactly with the LUT gather
(``f(table)[keys] == f(table[keys])`` element for element), a reordered
pure filter changes only *when* a sample is dropped, never which samples
survive or their values, and hoisting memoizes a function of the epoch
alone.  The conformance harness re-proves this on every run.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.graph.ir import FusedStep, GraphNode, OUTPUT_FIELDS, PipelineGraph

__all__ = [
    "PassAction",
    "PassTrace",
    "RewritePass",
    "DeadOpElimination",
    "FilterReorder",
    "EpochConstantHoist",
    "ElementwiseFusion",
    "DEFAULT_PASSES",
    "default_passes",
    "run_passes",
]


@dataclass(frozen=True)
class PassAction:
    """One recorded rewrite (for traces, the CLI, and tests)."""

    pass_name: str
    detail: str


@dataclass
class PassTrace:
    """Ordered log of everything the pass pipeline changed."""

    actions: list[PassAction] = field(default_factory=list)

    def record(self, pass_name: str, detail: str) -> None:
        self.actions.append(PassAction(pass_name, detail))

    def by_pass(self, pass_name: str) -> list[str]:
        return [a.detail for a in self.actions if a.pass_name == pass_name]

    def to_json(self) -> list[dict]:
        return [
            {"pass": a.pass_name, "detail": a.detail} for a in self.actions
        ]

    def __len__(self) -> int:
        return len(self.actions)


class RewritePass(abc.ABC):
    """One graph-to-graph rewrite."""

    name: str = "pass"

    @abc.abstractmethod
    def run(self, graph: PipelineGraph, trace: PassTrace) -> PipelineGraph: ...


class DeadOpElimination(RewritePass):
    """Remove stages that cannot affect the delivered ``(tensor, label)``.

    Two cases: identity elementwise nodes (no func, no cast), and pure
    value-transform nodes none of whose written fields are live — live
    meaning read by a later surviving node or part of
    :data:`~repro.graph.ir.OUTPUT_FIELDS`.  Field granularity is coarse
    (all of ``meta`` is one field), so elimination is conservative.
    """

    name = "dead-op-elimination"
    _REMOVABLE = frozenset({"elementwise", "label", "epoch_const"})

    def run(self, graph: PipelineGraph, trace: PassTrace) -> PipelineGraph:
        kept_rev: list[GraphNode] = []
        live = set(OUTPUT_FIELDS)
        for node in reversed(graph.nodes):
            removable = node.kind in self._REMOVABLE and node.attrs.pure
            if removable and node.kind == "elementwise" and (
                node.func is None and node.out_dtype is None
            ):
                trace.record(self.name, f"removed identity node '{node.name}'")
                continue
            if removable and not (node.writes & live):
                trace.record(
                    self.name,
                    f"removed dead node '{node.name}' "
                    f"(writes {sorted(node.writes)} never read)",
                )
                continue
            kept_rev.append(node)
            live |= node.reads
        return PipelineGraph(graph.name, list(reversed(kept_rev)))


class FilterReorder(RewritePass):
    """Move filters as early as their field dependencies allow.

    A filter may hop over any earlier *pure* node that writes none of
    the fields its predicate reads; relative filter order is preserved
    so multi-filter graphs rewrite deterministically.  Hopping over the
    read/decode nodes is the payoff: dropped samples then cost neither
    storage bytes nor decode cycles.
    """

    name = "filter-reorder"

    def run(self, graph: PipelineGraph, trace: PassTrace) -> PipelineGraph:
        nodes = [n.clone() for n in graph.nodes]
        for i in range(len(nodes)):
            node = nodes[i]
            if node.kind != "filter":
                continue
            j = i
            while j > 0:
                prev = nodes[j - 1]
                if prev.kind == "filter" or not prev.attrs.pure:
                    break
                if prev.writes & node.reads:
                    break
                j -= 1
            if j < i:
                hopped = [n.name for n in nodes[j:i]]
                nodes.insert(j, nodes.pop(i))
                trace.record(
                    self.name,
                    f"moved filter '{node.name}' before "
                    f"{', '.join(hopped)}",
                )
        return PipelineGraph(graph.name, nodes)


class EpochConstantHoist(RewritePass):
    """Mark per-epoch-constant pure nodes for memoized evaluation.

    The compiler lowers a hoisted node to an operator that computes
    ``func(epoch)`` once per epoch under a lock and reuses the cached
    value for every sample, taking the work out of the per-sample path.
    """

    name = "epoch-constant-hoist"

    def run(self, graph: PipelineGraph, trace: PassTrace) -> PipelineGraph:
        nodes = []
        for node in graph.nodes:
            node = node.clone()
            if (
                node.attrs.per_epoch_constant
                and node.attrs.pure
                and not node.hoisted
            ):
                node.hoisted = True
                trace.record(
                    self.name,
                    f"hoisted '{node.name}' to once-per-epoch evaluation",
                )
            nodes.append(node)
        return PipelineGraph(graph.name, nodes)


class ElementwiseFusion(RewritePass):
    """Compose trailing elementwise stages into a fusable decode node.

    Walking forward from decode, consecutive pure elementwise nodes are
    absorbed as :class:`~repro.graph.ir.FusedStep` entries; pure nodes
    that touch neither read nor write ``tensor`` (label transforms,
    index-only filters) are hopped over, since an elementwise transform
    of the tensor commutes with them.  The first node that reads or
    writes the tensor non-elementwise ends the chain.

    Execution passes the composed chain to the plugin's ``decode_group``
    (``func=``): the LUT plugin applies it to table *entries* before one
    gather (the paper's reordering, now derived instead of hand-written);
    the delta plugin applies it as a single post-transform pass.  Both
    are bit-identical to running the stages separately.
    """

    name = "elementwise-fusion"

    def run(self, graph: PipelineGraph, trace: PassTrace) -> PipelineGraph:
        nodes = [n.clone() for n in graph.nodes]
        decode = next(
            (n for n in nodes if n.kind == "decode" and n.attrs.fusable), None
        )
        if decode is None:
            return PipelineGraph(graph.name, nodes)
        start = nodes.index(decode) + 1
        chain: list[GraphNode] = []
        for node in nodes[start:]:
            if node.kind == "elementwise" and node.attrs.pure:
                chain.append(node)
            elif node.attrs.pure and not (
                (node.reads | node.writes) & {"tensor"}
            ):
                continue  # commutes with tensor-elementwise stages
            else:
                break
        if not chain:
            return PipelineGraph(graph.name, nodes)
        decode.fused_steps = decode.fused_steps + tuple(
            FusedStep(n.name, n.func, n.out_dtype, n.attrs.cost_hint)
            for n in chain
        )
        fused_names = {n.name for n in chain}
        for name in sorted(fused_names):
            trace.record(self.name, f"fused '{name}' into '{decode.name}'")
        nodes = [n for n in nodes if n.name not in fused_names]
        return PipelineGraph(graph.name, nodes)


def default_passes() -> tuple[RewritePass, ...]:
    """Fresh instances of the default pass pipeline, in order."""
    return (
        DeadOpElimination(),
        FilterReorder(),
        EpochConstantHoist(),
        ElementwiseFusion(),
    )


DEFAULT_PASSES = default_passes()


def run_passes(
    graph: PipelineGraph,
    passes: tuple[RewritePass, ...] | None = None,
    trace: PassTrace | None = None,
) -> tuple[PipelineGraph, PassTrace]:
    """Apply ``passes`` (default: the standard four) left to right."""
    trace = trace if trace is not None else PassTrace()
    for p in passes if passes is not None else default_passes():
        graph = p.run(graph, trace)
    return graph, trace
