"""Preprocessing-graph IR: declared op DAGs over pipeline-item fields.

The linear :class:`~repro.pipeline.graph.Pipeline` executes whatever chain
it is given; this module is where a chain is *declared* instead — each
stage as a :class:`GraphNode` carrying the attributes an optimizer needs
(elementwise, pure, per-epoch-constant, selectivity, cost hints) plus the
:class:`~repro.pipeline.ops.PipelineItem` fields it reads and writes.
Dependencies are not drawn by hand: they are *derived* from the field
sets, exactly the discipline tf.data's static optimizations rely on.  Two
nodes conflict when one writes a field the other touches; everything else
commutes, which is what licenses the rewrites in
:mod:`repro.graph.passes` (fusion, filter reordering, hoisting, DCE).

A graph is an ordered node sequence — the declared execution order — plus
the derived conflict edges.  Any reordering that preserves those edges is
semantically equal on surviving samples; the conformance harness
(:func:`repro.conformance.differential.check_graph_equivalence`) checks
the stronger property the paper needs: *bit*-identical outputs.

Kept free of the rest of the package but for
:class:`~repro.core.plugins.base.FusedStep` — the chain-step type plugins
state their own preprocessing in — so plugins can import it to implement
``declare_preprocessing()`` without cycles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.plugins.base import FusedStep

__all__ = [
    "FIELDS",
    "OUTPUT_FIELDS",
    "OpAttrs",
    "FusedStep",
    "GraphNode",
    "PipelineGraph",
]

#: the PipelineItem fields nodes may read/write
FIELDS = frozenset({"index", "epoch", "blob", "tensor", "label", "meta"})
#: what the loader ultimately consumes — dead-op elimination's roots
OUTPUT_FIELDS = frozenset({"tensor", "label"})


@dataclass(frozen=True)
class OpAttrs:
    """Optimizer-relevant properties of one node.

    Attributes
    ----------
    elementwise:
        ``output[i]`` depends only on ``input[i]`` — commutes bit-exactly
        with any gather/expansion, so it may be fused into decode.
    pure:
        Deterministic and free of observable side effects; only pure
        nodes may be skipped for filtered-out samples or reordered.
    per_epoch_constant:
        The node's result depends only on the epoch, not the sample —
        hoistable out of the per-sample path and memoized per epoch.
    selectivity:
        For filters: expected fraction of samples that *pass* (in
        ``(0, 1]``).  Drives both reordering profitability and the cost
        model's per-delivered-sample inflation of upstream work.
    cost_hint:
        Per-sample compute, in full passes over the decoded tensor
        (1.0 = touch every element once).  A ranking hint for the cost
        model, not an exact measurement.
    fusable:
        For decode nodes: a trailing elementwise chain may be composed
        into the decode (``decode_group(func=)``).
    fused_cost_hint:
        Multiplier applied to a fused step's own ``cost_hint``.  For LUT
        decode this is the table fraction (the operator runs over
        hundreds of table entries, not millions of voxels); for a
        post-transform fusion it stays 1.0 (fusing then saves only op
        dispatch, which the model deliberately ignores).
    batch_overhead:
        For decode nodes: the fraction of per-sample decode cost that is
        *fixed per launch* (kernel dispatch, table setup, line-descriptor
        bookkeeping) rather than proportional to the data.  A batched
        decode of ``B`` samples pays that fraction once, so the plan
        cost model scales decode work by ``1 - f + f/B`` — the
        amortization curve ``tune(batch_sizes=...)`` searches over.
        ``0.0`` (default) means batching saves nothing for this decode.
    """

    elementwise: bool = False
    pure: bool = True
    per_epoch_constant: bool = False
    selectivity: float = 1.0
    cost_hint: float = 0.0
    fusable: bool = False
    fused_cost_hint: float = 1.0
    batch_overhead: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.selectivity <= 1:
            raise ValueError("selectivity must be in (0, 1]")
        if self.cost_hint < 0 or self.fused_cost_hint < 0:
            raise ValueError("cost hints must be >= 0")
        if not 0 <= self.batch_overhead <= 1:
            raise ValueError("batch_overhead is a cost fraction in [0, 1]")


@dataclass
class GraphNode:
    """One declared stage: kind, attributes, field sets, and its payload.

    ``kind`` is one of ``read``/``decode``/``elementwise``/``label``/
    ``filter``/``epoch_const``/``op``; which payload fields are set
    depends on it.  ``fused_steps``/``hoisted``/``device`` start empty
    and are filled in by optimizer passes.
    """

    name: str
    kind: str
    attrs: OpAttrs
    reads: frozenset
    writes: frozenset
    # payloads (kind-dependent)
    func: Callable | None = None
    out_dtype: np.dtype | None = None
    predicate: Callable | None = None
    op: object | None = None
    source: object | None = None
    plugin: object | None = None
    verify: bool = False
    meta_key: str | None = None
    # pass annotations
    fused_steps: tuple = ()
    hoisted: bool = False
    device: str | None = None  # placement-pass choice: "cpu" | "gpu"

    def clone(self) -> "GraphNode":
        return dataclasses.replace(self)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "attrs": {
                "elementwise": self.attrs.elementwise,
                "pure": self.attrs.pure,
                "per_epoch_constant": self.attrs.per_epoch_constant,
                "selectivity": self.attrs.selectivity,
                "cost_hint": self.attrs.cost_hint,
                "fusable": self.attrs.fusable,
                "fused_cost_hint": self.attrs.fused_cost_hint,
                "batch_overhead": self.attrs.batch_overhead,
            },
        }
        if self.out_dtype is not None:
            out["out_dtype"] = np.dtype(self.out_dtype).name
        if self.fused_steps:
            out["fused_steps"] = [
                {
                    "name": s.name,
                    "out_dtype": (
                        np.dtype(s.out_dtype).name if s.out_dtype else None
                    ),
                }
                for s in self.fused_steps
            ]
        if self.hoisted:
            out["hoisted"] = True
        if self.device is not None:
            out["device"] = self.device
        if self.meta_key is not None:
            out["meta_key"] = self.meta_key
        return out


class PipelineGraph:
    """An ordered sequence of :class:`GraphNode` with derived conflict edges.

    Built with the fluent declaration methods (:meth:`read`,
    :meth:`decode`, :meth:`elementwise`, …); compiled to an executable
    plan by :func:`repro.graph.compiler.compile_graph`.
    """

    def __init__(self, name: str = "pipeline", nodes: Sequence[GraphNode] = ()):
        self.name = name
        self.nodes: list[GraphNode] = list(nodes)

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------

    def _append(self, node: GraphNode) -> GraphNode:
        if any(n.name == node.name for n in self.nodes):
            raise ValueError(f"duplicate node name {node.name!r}")
        unknown = (node.reads | node.writes) - FIELDS
        if unknown:
            raise ValueError(f"unknown item fields: {sorted(unknown)}")
        self.nodes.append(node)
        return node

    def read(self, source, verify: bool = False, name: str = "read") -> GraphNode:
        """Fetch container bytes for the sample index."""
        if any(n.kind == "read" for n in self.nodes):
            raise ValueError("graph already has a read node")
        return self._append(GraphNode(
            name=name, kind="read", attrs=OpAttrs(pure=True),
            reads=frozenset({"index"}), writes=frozenset({"blob", "meta"}),
            source=source, verify=verify,
        ))

    def decode(
        self,
        plugin,
        name: str = "decode",
        fusable: bool = True,
        fused_cost_hint: float = 1.0,
        cost_hint: float = 1.0,
        batch_overhead: float = 0.0,
    ) -> GraphNode:
        """Decode the blob to the representation's *native* tensor.

        Graph decode is :meth:`~repro.core.plugins.base.SamplePlugin.
        decode_group` with the chain the fusion pass folds in (none when
        nothing fuses) — the plugin's own preprocessing, its ``steps``,
        is declared as separate elementwise nodes so the optimizer can
        see, fuse, and cost it.  ``batch_overhead`` declares the fixed
        per-launch fraction of decode cost a batched decode amortizes
        (see :class:`OpAttrs`).
        """
        if any(n.kind == "decode" for n in self.nodes):
            raise ValueError("graph already has a decode node")
        if not any(n.kind == "read" for n in self.nodes):
            raise ValueError("decode requires a read node first")
        return self._append(GraphNode(
            name=name, kind="decode",
            attrs=OpAttrs(pure=True, fusable=fusable,
                          fused_cost_hint=fused_cost_hint,
                          cost_hint=cost_hint,
                          batch_overhead=batch_overhead),
            reads=frozenset({"blob"}),
            writes=frozenset({"tensor", "label", "blob"}),
            plugin=plugin,
        ))

    def elementwise(
        self,
        name: str,
        func: Callable[[np.ndarray], np.ndarray] | None,
        out_dtype=None,
        cost_hint: float = 1.0,
    ) -> GraphNode:
        """A pure per-element transform of the tensor (ufunc and/or cast)."""
        return self._append(GraphNode(
            name=name, kind="elementwise",
            attrs=OpAttrs(elementwise=True, pure=True, cost_hint=cost_hint),
            reads=frozenset({"tensor"}), writes=frozenset({"tensor"}),
            func=func,
            out_dtype=np.dtype(out_dtype) if out_dtype is not None else None,
        ))

    def cast(self, name: str, dtype) -> GraphNode:
        """Sugar: an elementwise node that only changes dtype."""
        return self.elementwise(name, None, out_dtype=dtype, cost_hint=0.5)

    def label_transform(self, name: str, func: Callable) -> GraphNode:
        """A pure transform of the label (parameter scaling etc.)."""
        return self._append(GraphNode(
            name=name, kind="label", attrs=OpAttrs(pure=True),
            reads=frozenset({"label"}), writes=frozenset({"label"}),
            func=func,
        ))

    def filter(
        self,
        name: str,
        predicate: Callable,
        selectivity: float = 1.0,
        reads: Sequence[str] = ("index", "epoch"),
    ) -> GraphNode:
        """Drop samples for which ``predicate(item)`` is false.

        ``reads`` declares which item fields the predicate inspects —
        the reordering pass moves the filter as early as those fields
        allow, and a filter reading only ``index``/``epoch`` can be
        hoisted all the way out of the executor (a *prefilter* applied
        to the epoch order before any byte is read).
        """
        return self._append(GraphNode(
            name=name, kind="filter",
            attrs=OpAttrs(pure=True, selectivity=selectivity),
            reads=frozenset(reads), writes=frozenset(),
            predicate=predicate,
        ))

    def epoch_constant(
        self,
        name: str,
        func: Callable[[int], object],
        meta_key: str,
        cost_hint: float = 0.0,
    ) -> GraphNode:
        """Work whose result depends only on the epoch number.

        ``func(epoch)`` is stored under ``item.meta[meta_key]``.  The
        hoisting pass memoizes it once per epoch instead of once per
        sample.
        """
        return self._append(GraphNode(
            name=name, kind="epoch_const",
            attrs=OpAttrs(pure=True, per_epoch_constant=True,
                          cost_hint=cost_hint),
            reads=frozenset({"epoch"}), writes=frozenset({"meta"}),
            func=func, meta_key=meta_key,
        ))

    def op(
        self,
        op,
        pure: bool = False,
        reads: Sequence[str] | None = None,
        writes: Sequence[str] | None = None,
    ) -> GraphNode:
        """An opaque :class:`~repro.pipeline.ops.Op` passthrough.

        Conservative by default — it reads and writes every field and is
        impure, so no pass reorders across it.  Declare tighter field
        sets (and purity) to opt into optimization.
        """
        return self._append(GraphNode(
            name=op.name, kind="op", attrs=OpAttrs(pure=pure),
            reads=frozenset(reads) if reads is not None else FIELDS,
            writes=frozenset(writes) if writes is not None else FIELDS,
            op=op,
        ))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def node(self, name: str) -> GraphNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    def find(self, kind: str) -> GraphNode | None:
        """First node of ``kind``, or None."""
        for n in self.nodes:
            if n.kind == kind:
                return n
        return None

    def edges(self) -> list[tuple[str, str]]:
        """Derived conflict edges ``(before, after)``.

        ``a → b`` whenever ``a`` precedes ``b`` in declaration order and
        they touch a common field with at least one write — the standard
        flow/anti/output dependence test.  Any execution order
        preserving these edges computes the same item values.
        """
        out = []
        for j, b in enumerate(self.nodes):
            for a in self.nodes[:j]:
                if (a.writes & b.reads) or (a.reads & b.writes) or (
                    a.writes & b.writes
                ):
                    out.append((a.name, b.name))
        return out

    def validate(self) -> None:
        """Check the graph is executable as declared."""
        if not self.nodes:
            raise ValueError("graph has no nodes")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names: {names}")
        seen_decode = False
        for n in self.nodes:
            if n.kind == "decode":
                seen_decode = True
            elif n.kind in ("elementwise", "label") and not seen_decode:
                raise ValueError(
                    f"node {n.name!r} reads decoded fields but no decode "
                    "node precedes it"
                )

    def copy(self) -> "PipelineGraph":
        return PipelineGraph(self.name, [n.clone() for n in self.nodes])

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "nodes": [n.to_json() for n in self.nodes],
            "edges": [list(e) for e in self.edges()],
        }

    def describe(self) -> str:
        """Compact multi-line rendering for logs and the CLI."""
        lines = [f"graph {self.name}:"]
        for n in self.nodes:
            bits = [n.kind]
            if n.attrs.selectivity < 1:
                bits.append(f"sel={n.attrs.selectivity:g}")
            if n.fused_steps:
                bits.append(
                    "fused[" + ",".join(s.name for s in n.fused_steps) + "]"
                )
            if n.hoisted:
                bits.append("hoisted")
            if n.device:
                bits.append(f"@{n.device}")
            lines.append(f"  {n.name}: {' '.join(bits)}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PipelineGraph({self.name!r}, "
            f"[{', '.join(n.name for n in self.nodes)}])"
        )
