"""Declared preprocessing graphs + the optimizing compiler.

The paper's decode wins (fuse ``log1p``+FP16 into the LUT table, read
less, do less per sample) started life as hand-written special cases;
this package turns them into compiler output.  A plugin *declares* its
preprocessing as a :class:`PipelineGraph` (see
``SamplePlugin.declare_preprocessing``), the pass pipeline rewrites it
(fusion, filter reordering, epoch-constant hoisting, DCE), and
:func:`compile_graph` lowers the result to the op chain the
``DataLoader`` executes — with every rewrite proven bit-exact by the
conformance harness.  See ``docs/graph.md``.
"""

from repro.graph.compiler import (
    CompiledPlan,
    ElementwiseOp,
    EpochConstOp,
    GraphFilterOp,
    PlanCostTerms,
    compile_graph,
    compose_steps,
)
from repro.graph.ir import (
    FIELDS,
    OUTPUT_FIELDS,
    FusedStep,
    GraphNode,
    OpAttrs,
    PipelineGraph,
)
from repro.graph.passes import (
    DEFAULT_PASSES,
    DeadOpElimination,
    ElementwiseFusion,
    EpochConstantHoist,
    FilterReorder,
    PassAction,
    PassTrace,
    RewritePass,
    default_passes,
    run_passes,
)
from repro.graph.placement import (
    PlacementDecision,
    choose_placement,
    score_plan,
)

__all__ = [
    "FIELDS",
    "OUTPUT_FIELDS",
    "OpAttrs",
    "FusedStep",
    "GraphNode",
    "PipelineGraph",
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
    "ElementwiseOp",
    "GraphFilterOp",
    "EpochConstOp",
    "PlanCostTerms",
    "CompiledPlan",
    "compose_steps",
    "compile_graph",
    "PlacementDecision",
    "score_plan",
    "choose_placement",
]
