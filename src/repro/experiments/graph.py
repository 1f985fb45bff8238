"""Graph experiment: the optimizer re-derives the paper's rewrites.

Not a paper exhibit — the acceptance exhibit for the ``repro.graph``
subsystem, the same role :mod:`repro.experiments.tiering` plays for
``repro.tiering``.  The paper's preprocessing wins were hand-written
into each pipeline (``log1p``+FP16 folded onto the LUT table, filters
pushed ahead of expensive work); here each workload *declares* its
preprocessing as a :class:`~repro.graph.ir.PipelineGraph` and the
optimizer must rediscover the same rewrites.  Four checks:

* **bit-exact equivalence** — the optimized plan's output is
  bit-identical to the naive plan's on both workloads, via the
  :func:`~repro.conformance.check_graph_equivalence` harness (and
  ``plugin.decode`` is that optimized plan by construction);
* **derived rewrites** — the pass trace shows the CosmoFlow fusion
  (``log1p`` and ``fp16`` folded into decode) and the DeepCAM holdout
  filter hoisted out of the executor entirely;
* **measured speedup** — the optimized loader's wall-clock epoch beats
  the naive one on both workloads (the ≥1.5× CI gate lives in
  ``benchmarks/bench_graph_fusion.py``);
* **cost-model agreement** — the cost model ranks the optimized plan
  at or above the naive plan, matching the measured ordering, and
  ``tune(plans=...)`` picks it.
"""

from __future__ import annotations

import time

from repro.conformance import check_graph_equivalence
from repro.experiments.harness import ExperimentResult
from repro.experiments.serving import _epoch_bytes, _make_blobs
from repro.graph import compile_graph
from repro.pipeline import DataLoader, ListSource

__all__ = ["run"]

WORKLOADS = ("cosmoflow", "deepcam")


def _declare(workload: str, n_samples: int, seed: int, holdout: float):
    plugin, blobs = _make_blobs(workload, n_samples, seed)
    kwargs = {"holdout": holdout} if workload == "deepcam" else {}
    return plugin, blobs, plugin.declare_preprocessing(
        ListSource(blobs), **kwargs
    )


def _epoch_seconds(loader: DataLoader, epochs: int, repeats: int) -> float:
    """Best-of-``repeats`` wall clock for ``epochs`` full epochs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for e in range(epochs):
            for _batch in loader.batches(e):
                pass
        best = min(best, time.perf_counter() - t0)
    return best


def run(
    n_samples: int = 8,
    batch_size: int = 4,
    epochs: int = 2,
    holdout: float = 0.5,
    repeats: int = 3,
    seed: int = 0,
    quiet: bool = False,
) -> ExperimentResult:
    """Run the graph-compiler scenarios and assert their invariants."""
    result = ExperimentResult(
        exhibit="Graph",
        title="declared-graph optimizer vs the naive pipeline",
        headers=["scenario", "detail", "value"],
    )

    # -- bit-exact equivalence: naive vs optimized --------------------------
    for workload in WORKLOADS:
        plugin, blobs, graph = _declare(workload, n_samples, seed, holdout)
        report = check_graph_equivalence(graph, epochs=epochs)
        result.add(
            f"equivalence ({workload})",
            f"{len(blobs)} samples x {epochs} epochs across "
            + "/".join(report.impls),
            "bit-identical" if report.ok else
            f"{len(report.mismatches)} MISMATCH(ES)",
        )
        result.findings[f"identical_{workload}"] = float(report.ok)

    # -- derived rewrites: the trace re-derives the paper's tricks ---------
    _, _, cosmo_graph = _declare("cosmoflow", n_samples, seed, holdout)
    cosmo_plan = compile_graph(cosmo_graph)
    fused = set(cosmo_plan.trace.by_pass("elementwise-fusion"))
    fusion_ok = any("log1p" in d for d in fused) and any(
        "fp16" in d for d in fused
    )
    result.add(
        "derived fusion (cosmoflow)",
        "; ".join(sorted(fused)) or "no fusion recorded",
        "log1p+fp16 on the table" if fusion_ok else "MISSING",
    )
    result.findings["fusion_derived"] = float(fusion_ok)

    _, _, cam_graph = _declare("deepcam", n_samples, seed, holdout)
    cam_plan = compile_graph(cam_graph)
    hoisted = [p.name for p in cam_plan.prefilters]
    reorder = cam_plan.trace.by_pass("filter-reorder")
    prefilter_ok = "holdout" in hoisted and bool(reorder)
    result.add(
        "derived prefilter (deepcam)",
        "; ".join(reorder) or "no reorder recorded",
        f"hoisted {hoisted}" if prefilter_ok else "MISSING",
    )
    result.findings["prefilter_derived"] = float(prefilter_ok)

    # -- measured speedup: optimized loader vs naive loader ----------------
    speedups: dict[str, float] = {}
    for workload in WORKLOADS:
        plugin, blobs, graph = _declare(workload, n_samples, seed, holdout)
        loaders = {
            opt: DataLoader(
                ListSource(blobs), plugin, batch_size=batch_size,
                seed=seed, graph=graph.copy(), optimize_graph=opt,
            )
            for opt in (False, True)
        }
        identical = all(
            _epoch_bytes(loaders[False], e) == _epoch_bytes(loaders[True], e)
            for e in range(epochs)
        )
        naive_s = _epoch_seconds(loaders[False], epochs, repeats)
        opt_s = _epoch_seconds(loaders[True], epochs, repeats)
        speedups[workload] = naive_s / opt_s if opt_s > 0 else float("inf")
        result.add(
            f"measured speedup ({workload})",
            f"naive {naive_s * 1e3:.1f} ms vs optimized "
            f"{opt_s * 1e3:.1f} ms for {epochs} epochs"
            + ("" if identical else " [BYTES DIFFER]"),
            f"{speedups[workload]:.2f}x",
        )
        result.findings[f"speedup_{workload}"] = speedups[workload]
        result.findings[f"speedup_identical_{workload}"] = float(identical)

    # -- cost model: predicted ordering matches, tune picks the plan -------
    from repro.tune import resolve_machine, tune, workload_space
    from repro.tune.costmodel import predict_throughput

    machine = resolve_machine("summit")
    agrees = True
    for workload in WORKLOADS:
        plugin, blobs, graph = _declare(workload, n_samples, seed, holdout)
        plans = {
            "naive": compile_graph(graph, optimize=False),
            "optimized": compile_graph(graph),
        }
        space = workload_space(workload)
        rep = "plugin" if workload == "cosmoflow" else "cpu"
        cfg = space.config(rep, staged=True, num_workers=4,
                           prefetch_depth=4, cache_fraction=0.3)
        preds = {
            name: predict_throughput(
                machine, space.workload, space.costs[rep], cfg,
                2048, plan=plan,
            ).steady_samples_per_s
            for name, plan in plans.items()
        }
        ordered = preds["optimized"] >= preds["naive"]
        agrees &= ordered and speedups[workload] >= 1.0
        searched = tune(machine, space, samples_per_gpu=256, seed=seed,
                        validate=False, plans=plans)
        result.add(
            f"cost model ({workload})",
            f"predicted optimized {preds['optimized']:.0f} vs naive "
            f"{preds['naive']:.0f} samples/s; tune picked "
            f"'{searched.best.plan}'",
            "agrees" if ordered else "DISAGREES",
        )
        result.findings[f"tune_picks_optimized_{workload}"] = float(
            searched.best.plan == "optimized"
        )
    result.findings["predicted_ranking_agrees"] = float(agrees)

    if not quiet:
        print(result.render())
    return result
