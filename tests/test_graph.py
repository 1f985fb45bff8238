"""Tests for the preprocessing-graph IR, optimizer passes, compiler,
plan cost model, placement, and execution equivalence."""

import numpy as np
import pytest

from repro.accel.device import V100, SimulatedGpu
from repro.conformance import ConformanceError, check_graph_equivalence
from repro.core.plugins import (
    CosmoflowBaselinePlugin,
    CosmoflowLutPlugin,
    DeepcamDeltaPlugin,
    holdout_filter,
    log_transform,
)
from repro.datasets import cosmoflow, deepcam
from repro.graph import (
    DeadOpElimination,
    ElementwiseFusion,
    EpochConstantHoist,
    FilterReorder,
    OpAttrs,
    PassTrace,
    PipelineGraph,
    choose_placement,
    compile_graph,
    compose_steps,
    run_passes,
)
from repro.graph.compiler import EpochConstOp
from repro.pipeline import DataLoader, ListSource
from repro.pipeline.ops import Op


@pytest.fixture(scope="module")
def cosmo_lut():
    cfg = cosmoflow.CosmoflowConfig(grid=8, n_particles=3000)
    ds = cosmoflow.generate_dataset(4, cfg, seed=5)
    plugin = CosmoflowLutPlugin("cpu")
    return plugin, [plugin.encode(s.data, s.label) for s in ds]


@pytest.fixture(scope="module")
def deepcam_fix():
    cfg = deepcam.DeepcamConfig(height=16, width=24, n_channels=4)
    ds = deepcam.generate_dataset(8, cfg, seed=6)
    plugin = DeepcamDeltaPlugin("cpu")
    return plugin, [plugin.encode(s.data, s.label) for s in ds]


class TestIR:
    def test_builders_derive_field_sets(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        g = plugin.declare_preprocessing(ListSource(blobs))
        read, decode = g.node("read"), g.node("decode")
        assert read.reads == {"index"} and "blob" in read.writes
        assert decode.reads == {"blob"}
        assert {"tensor", "label"} <= decode.writes
        assert g.node("log1p").reads == {"tensor"}

    def test_edges_follow_field_conflicts(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        g = plugin.declare_preprocessing(ListSource(blobs))
        edges = set(g.edges())
        assert ("read", "decode") in edges  # blob flow dependence
        assert ("decode", "log1p") in edges  # tensor flow dependence
        assert ("log1p", "fp16") in edges  # tensor output dependence
        # an index-only filter has no edge from decode
        g.filter("f", lambda item: True, reads=("index",))
        assert ("decode", "f") not in set(g.edges())

    def test_duplicate_node_name_rejected(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        g = plugin.declare_preprocessing(ListSource(blobs))
        with pytest.raises(ValueError):
            g.elementwise("log1p", np.log1p)

    def test_second_read_or_decode_rejected(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        g = plugin.declare_preprocessing(ListSource(blobs))
        with pytest.raises(ValueError):
            g.read(ListSource(blobs), name="read2")
        with pytest.raises(ValueError):
            g.decode(plugin, name="decode2")

    def test_decode_requires_read(self, cosmo_lut):
        plugin, _ = cosmo_lut
        with pytest.raises(ValueError):
            PipelineGraph().decode(plugin)

    def test_elementwise_before_decode_rejected(self):
        g = PipelineGraph()
        g.elementwise("x", np.log1p)
        with pytest.raises(ValueError):
            g.validate()

    def test_unknown_field_rejected(self):
        g = PipelineGraph()
        with pytest.raises(ValueError):
            g.filter("f", lambda item: True, reads=("indexx",))

    def test_attrs_validation(self):
        with pytest.raises(ValueError):
            OpAttrs(selectivity=0.0)
        with pytest.raises(ValueError):
            OpAttrs(selectivity=1.5)
        with pytest.raises(ValueError):
            OpAttrs(cost_hint=-1)

    def test_to_json_and_describe(self, cosmo_lut):
        import json

        plugin, blobs = cosmo_lut
        g = plugin.declare_preprocessing(ListSource(blobs))
        doc = json.loads(json.dumps(g.to_json()))
        assert [n["name"] for n in doc["nodes"]] == [
            "read", "decode", "log1p", "fp16",
        ]
        assert doc["nodes"][3]["out_dtype"] == "float16"
        assert ["read", "decode"] in doc["edges"]
        assert "graph cosmoflow-lut-cpu" in g.describe()

    def test_copy_is_deep_at_node_level(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        g = plugin.declare_preprocessing(ListSource(blobs))
        g2 = g.copy()
        g2.node("decode").hoisted = True
        assert g.node("decode").hoisted is False


class TestPasses:
    def _graph(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        return plugin, plugin.declare_preprocessing(ListSource(blobs))

    def test_dead_op_removes_identity_elementwise(self, cosmo_lut):
        plugin, g = self._graph(cosmo_lut)
        g.elementwise("noop", None)  # no func, no cast
        out, trace = run_passes(g, passes=(DeadOpElimination(),))
        assert "noop" not in [n.name for n in out.nodes]
        assert any("identity" in d for d in trace.by_pass("dead-op-elimination"))

    def test_dead_op_removes_unread_epoch_const(self, cosmo_lut):
        plugin, g = self._graph(cosmo_lut)
        g.epoch_constant("aug_seed", lambda e: e * 7, meta_key="aug_seed")
        out, _ = run_passes(g, passes=(DeadOpElimination(),))
        assert "aug_seed" not in [n.name for n in out.nodes]

    def test_dead_op_keeps_epoch_const_read_downstream(self, cosmo_lut):
        plugin, g = self._graph(cosmo_lut)
        g.epoch_constant("aug_seed", lambda e: e * 7, meta_key="aug_seed")

        class MetaReader(Op):
            name = "meta_reader"

            def __call__(self, item):
                return item

        g.op(MetaReader(), pure=True, reads=("meta", "tensor"),
             writes=("tensor",))
        out, _ = run_passes(g, passes=(DeadOpElimination(),))
        assert "aug_seed" in [n.name for n in out.nodes]

    def test_filter_reorder_hops_read_and_decode(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        g = plugin.declare_preprocessing(ListSource(blobs), holdout=0.25)
        out, trace = run_passes(g, passes=(FilterReorder(),))
        assert [n.name for n in out.nodes][0] == "holdout"
        assert trace.by_pass("filter-reorder")

    def test_filter_reading_tensor_stays_after_decode(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        g = plugin.declare_preprocessing(ListSource(blobs))
        g.filter("nonzero", lambda item: bool(np.any(item.tensor)),
                 reads=("tensor",))
        out, trace = run_passes(g, passes=(FilterReorder(),))
        names = [n.name for n in out.nodes]
        assert names.index("nonzero") > names.index("decode")
        assert not trace.by_pass("filter-reorder")

    def test_relative_filter_order_preserved(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        g = plugin.declare_preprocessing(ListSource(blobs))
        g.filter("f1", lambda item: item.index % 2 == 0, reads=("index",))
        g.filter("f2", lambda item: item.index < 6, reads=("index",))
        out, _ = run_passes(g, passes=(FilterReorder(),))
        names = [n.name for n in out.nodes]
        assert names[:2] == ["f1", "f2"]

    def test_hoist_marks_epoch_constants(self, cosmo_lut):
        plugin, g = self._graph(cosmo_lut)
        g.epoch_constant("sched", lambda e: 0.5**e, meta_key="sched")
        out, trace = run_passes(g, passes=(EpochConstantHoist(),))
        assert out.node("sched").hoisted
        assert trace.by_pass("epoch-constant-hoist")

    def test_fusion_absorbs_elementwise_chain(self, cosmo_lut):
        plugin, g = self._graph(cosmo_lut)
        out, trace = run_passes(g, passes=(ElementwiseFusion(),))
        decode = out.node("decode")
        assert [s.name for s in decode.fused_steps] == ["log1p", "fp16"]
        assert [n.name for n in out.nodes] == ["read", "decode"]
        assert len(trace.by_pass("elementwise-fusion")) == 2

    def test_fusion_hops_label_transform(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        g = PipelineGraph("hop")
        g.read(ListSource(blobs))
        g.decode(plugin)
        g.elementwise("log1p", log_transform)
        g.label_transform("scale", lambda l: l * 2)
        g.cast("fp16", np.float16)
        out, _ = run_passes(g, passes=(ElementwiseFusion(),))
        decode = out.node("decode")
        assert [s.name for s in decode.fused_steps] == ["log1p", "fp16"]
        assert [n.name for n in out.nodes] == ["read", "decode", "scale"]

    def test_fusion_respects_unfusable_decode(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        g = PipelineGraph("nofuse")
        g.read(ListSource(blobs))
        g.decode(plugin, fusable=False)
        g.elementwise("log1p", log_transform)
        out, trace = run_passes(g, passes=(ElementwiseFusion(),))
        assert not out.node("decode").fused_steps
        assert "log1p" in [n.name for n in out.nodes]
        assert not trace.by_pass("elementwise-fusion")

    def test_impure_op_blocks_fusion_chain(self, cosmo_lut):
        plugin, blobs = cosmo_lut

        class Sideband(Op):
            name = "sideband"

            def __call__(self, item):
                return item

        g = PipelineGraph("blocked")
        g.read(ListSource(blobs))
        g.decode(plugin)
        g.op(Sideband())  # impure, reads/writes everything
        g.elementwise("log1p", log_transform)
        out, _ = run_passes(g, passes=(ElementwiseFusion(),))
        assert not out.node("decode").fused_steps

    def test_passes_do_not_mutate_input_graph(self, cosmo_lut):
        plugin, g = self._graph(cosmo_lut)
        before = [n.name for n in g.nodes]
        run_passes(g)
        assert [n.name for n in g.nodes] == before
        assert not g.node("decode").fused_steps


class TestCompiler:
    def test_naive_plan_matches_declaration(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        g = plugin.declare_preprocessing(ListSource(blobs))
        plan = compile_graph(g, optimize=False)
        assert [op.name for op in plan.ops] == [
            "read", "decode", "log1p", "fp16",
        ]
        assert not plan.optimized and not plan.prefilters
        assert len(plan.trace) == 0

    def test_optimized_plan_fuses_and_prefilters(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        g = plugin.declare_preprocessing(
            ListSource(blobs), cast=np.float32, holdout=0.25
        )
        plan = compile_graph(g)
        assert [op.name for op in plan.ops] == ["read", "decode"]
        assert [n.name for n in plan.prefilters] == ["holdout"]
        assert plan.trace.by_pass("prefilter")
        # source declaration is preserved unmodified
        assert [n.name for n in plan.source_graph.nodes] == [
            "read", "decode", "cast", "holdout",
        ]

    def test_naive_plan_keeps_filter_in_chain(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        g = plugin.declare_preprocessing(ListSource(blobs), holdout=0.25)
        plan = compile_graph(g, optimize=False)
        assert not plan.prefilters
        assert "holdout" in [op.name for op in plan.ops]
        # the in-chain filter marks dropped items
        pipe = plan.pipeline()
        dropped = sum(
            bool(pipe.run(i).meta.get("dropped")) for i in range(len(blobs))
        )
        assert 0 < dropped < len(blobs)

    def test_filter_order_matches_admit(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        g = plugin.declare_preprocessing(ListSource(blobs), holdout=0.5)
        plan = compile_graph(g)
        order = plan.filter_order(np.arange(len(blobs)), epoch=3)
        assert all(plan.admit(i, 3) for i in order.tolist())
        assert set(order.tolist()) == {
            i for i in range(len(blobs)) if plan.admit(i, 3)
        }
        # holdout reads only the index: same survivors every epoch
        assert np.array_equal(order, plan.filter_order(np.arange(len(blobs)), 9))

    def test_cost_terms_reflect_rewrites(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        g = plugin.declare_preprocessing(
            ListSource(blobs), cast=np.float32, holdout=0.5
        )
        naive = compile_graph(g, optimize=False)
        opt = compile_graph(g)
        # naive: the post-decode filter doubles per-delivered reads/decodes
        assert naive.terms.read_inflation == pytest.approx(2.0)
        assert naive.terms.decode_inflation == pytest.approx(2.0)
        # optimized: prefilter inflates nothing, cast fused into decode
        assert opt.terms.read_inflation == 1.0
        assert opt.terms.decode_inflation == 1.0
        assert opt.terms.extra_passes < naive.terms.extra_passes

    def test_lut_fused_steps_cost_table_fraction(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        plan = compile_graph(plugin.declare_preprocessing(ListSource(blobs)))
        # fused log1p (1.0) + fp16 cast (0.5) scaled by the table
        # fraction, not 1.5 full passes over the volume
        assert plan.terms.extra_passes == pytest.approx(
            1.5 * CosmoflowLutPlugin._TABLE_FRACTION
        )

    def test_epoch_const_memoized_only_when_optimized(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        calls = []

        def schedule(epoch):
            calls.append(epoch)
            return 0.5**epoch

        class MetaReader(Op):
            name = "meta_reader"

            def __call__(self, item):
                item.meta["seen"] = item.meta["sched"]
                return item

        def build():
            g = plugin.declare_preprocessing(ListSource(blobs))
            g.epoch_constant("sched", schedule, meta_key="sched")
            g.op(MetaReader(), pure=True, reads=("meta",), writes=("meta",))
            return g

        naive = compile_graph(build(), optimize=False)
        pipe = naive.pipeline()
        for i in range(4):
            pipe.run(i, epoch=0)
        assert len(calls) == 4  # per sample when unhoisted

        calls.clear()
        opt = compile_graph(build())
        pipe = opt.pipeline()
        for epoch in (0, 0, 1, 1, 1):
            item = pipe.run(0, epoch=epoch)
            assert item.meta["seen"] == 0.5**epoch
        assert calls == [0, 1]  # once per epoch
        const_op = next(o for o in opt.ops if isinstance(o, EpochConstOp))
        assert const_op.evaluations == 2

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            compile_graph(PipelineGraph())

    def test_compose_steps_matches_sequential_application(self):
        from repro.graph.ir import FusedStep

        composed = compose_steps((
            FusedStep("log1p", log_transform, None),
            FusedStep("fp16", None, np.dtype(np.float16)),
        ))
        x = np.arange(0, 50, dtype=np.int16)
        want = log_transform(x).astype(np.float16)
        assert composed(x).tobytes() == want.tobytes()


class TestExecutionEquivalence:
    def test_cosmoflow_graph_equivalence_with_legacy(self, cosmo_lut):
        """The optimized plan of the declaration *is* ``plugin.decode``:
        both fuse the plugin's steps into one ``decode_group`` call."""
        plugin, blobs = cosmo_lut
        graph = plugin.declare_preprocessing(ListSource(blobs))
        report = check_graph_equivalence(graph, epochs=2)
        report.raise_if_failed()
        assert report.impls == ["naive", "optimized"]
        pipe = compile_graph(graph).pipeline()
        for i, blob in enumerate(blobs):
            item = pipe.run(i)
            tensor, label = plugin.decode(blob)
            assert item.tensor.tobytes() == tensor.tobytes()
            assert item.label.tobytes() == label.tobytes()

    def test_cosmoflow_baseline_graph_equivalence(self):
        cfg = cosmoflow.CosmoflowConfig(grid=8, n_particles=3000)
        ds = cosmoflow.generate_dataset(3, cfg, seed=9)
        plugin = CosmoflowBaselinePlugin()
        blobs = [plugin.encode(s.data, s.label) for s in ds]
        check_graph_equivalence(
            plugin.declare_preprocessing(ListSource(blobs))
        ).raise_if_failed()

    def test_cosmoflow_gpu_graph_equivalence(self):
        cfg = cosmoflow.CosmoflowConfig(grid=8, n_particles=3000)
        ds = cosmoflow.generate_dataset(3, cfg, seed=10)
        plugin = CosmoflowLutPlugin("gpu")
        blobs = [plugin.encode(s.data, s.label) for s in ds]
        check_graph_equivalence(
            plugin.declare_preprocessing(ListSource(blobs)),
            device=SimulatedGpu(spec=V100),
        ).raise_if_failed()

    def test_deepcam_filtered_graph_equivalence(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        report = check_graph_equivalence(
            plugin.declare_preprocessing(
                ListSource(blobs), cast=np.float32, holdout=0.4
            ),
            epochs=2,
        )
        report.raise_if_failed()

    def test_harness_catches_non_elementwise_lie(self, cosmo_lut):
        """A stage falsely declared elementwise gets fused onto the LUT
        table, where it computes something different — the differential
        harness must catch the divergence, not paper over it."""
        plugin, blobs = cosmo_lut
        g = PipelineGraph("lie")
        g.read(ListSource(blobs))
        g.decode(plugin)
        # mean-centering is NOT elementwise: the mean over table values
        # differs from the mean over the expanded volume
        g.elementwise(
            "center",
            lambda t: (t - t.astype(np.float64).mean()).astype(np.float32),
        )
        report = check_graph_equivalence(g)
        assert not report.ok
        with pytest.raises(ConformanceError):
            report.raise_if_failed()

    def test_golden_lut_fused_vector_through_compiled_plan(self):
        """The compiled optimized plan reproduces the frozen lut-fused
        golden vector — the paper's hand-written log1p+FP16 table fusion,
        re-derived by the optimizer, against ground truth that predates
        the graph subsystem."""
        import json
        from pathlib import Path

        vec_dir = Path(__file__).parent / "vectors"
        case = next(
            c for c in json.loads((vec_dir / "manifest.json").read_text())["cases"]
            if c["name"] == "lut-fused"
        )
        blob = (vec_dir / case["blob"]).read_bytes()
        expected = np.load(vec_dir / case["expected"])

        plugin = CosmoflowLutPlugin("cpu")
        g = PipelineGraph("golden")
        g.read(ListSource([blob]))
        g.decode(plugin, fused_cost_hint=plugin._TABLE_FRACTION)
        g.elementwise("log1p", np.log1p)
        g.cast("fp16", np.float16)
        plan = compile_graph(g)
        assert plan.graph.node("decode").fused_steps  # fusion happened
        with np.errstate(invalid="ignore", divide="ignore"):
            item = plan.pipeline().run(0)
        assert item.tensor.dtype == np.dtype(case["expected_dtype"])
        assert item.tensor.shape == tuple(case["expected_shape"])
        assert item.tensor.tobytes() == expected.tobytes()


class TestLoaderGraph:
    def test_graph_loader_bit_identical_to_legacy(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        legacy = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=4)
        for optimize in (False, True):
            dl = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=4,
                            graph=True, optimize_graph=optimize)
            for (a, la), (b, lb) in zip(legacy.batches(1), dl.batches(1)):
                assert a.tobytes() == b.tobytes()
                assert la.tobytes() == lb.tobytes()

    def test_graph_loader_threaded_matches_sync(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        sync = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=2,
                          graph=True)
        thr = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=2,
                         graph=True, num_workers=3, prefetch_depth=2)
        for (a, _), (b, _) in zip(sync.batches(0), thr.batches(0)):
            assert a.tobytes() == b.tobytes()

    def test_explicit_graph_accepted(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        g = plugin.declare_preprocessing(ListSource(blobs))
        dl = DataLoader(ListSource(blobs), plugin, batch_size=4, graph=g)
        (batch, _), = list(dl.batches(0))
        assert batch.dtype == np.float16
        assert dl.plan is not None and dl.plan.optimized

    def test_prefilter_shrinks_epoch_order(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        g = plugin.declare_preprocessing(ListSource(blobs), holdout=0.5)
        dl = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=0,
                        graph=g)
        order = dl.epoch_order(0)
        assert 0 < len(order) < len(blobs)
        n_samples = sum(b.shape[0] for b, _ in dl.batches(0))
        assert n_samples == len(order)
        # held-out samples were never read: executor items == survivors
        assert dl.stats.snapshot()["executor.items"][0] == len(order)
        assert "loader.filtered" not in dl.stats.snapshot()

    def test_in_chain_filter_counts_filtered(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        g = plugin.declare_preprocessing(ListSource(blobs), holdout=0.5)
        dl = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=0,
                        graph=g, optimize_graph=False)
        n_samples = sum(b.shape[0] for b, _ in dl.batches(0))
        snap = dl.stats.snapshot()
        assert snap["loader.filtered"][0] == len(blobs) - n_samples
        assert snap["loader.filtered"][0] > 0
        assert len(dl.quarantine) == 0  # policy, not failure

    def test_naive_and_optimized_loaders_agree_on_survivors(self, deepcam_fix):
        plugin, blobs = deepcam_fix

        def batches(optimize):
            g = plugin.declare_preprocessing(ListSource(blobs), holdout=0.4)
            dl = DataLoader(ListSource(blobs), plugin, batch_size=1, seed=8,
                            graph=g, optimize_graph=optimize)
            return [(b.tobytes(), l.tobytes()) for b, l in dl.batches(2)]

        assert batches(True) == batches(False)

    def test_graph_loader_with_extra_ops_and_policy(self, deepcam_fix):
        from repro.pipeline.ops import LabelTransformOp

        plugin, blobs = deepcam_fix
        bad = list(blobs)
        bad[3] = b"corrupt"
        dl = DataLoader(
            ListSource(bad), plugin, batch_size=1, shuffle=False,
            graph=plugin.declare_preprocessing(ListSource(bad)),
            bad_sample_policy="skip",
            extra_ops=[LabelTransformOp(lambda l: l.astype(np.float32))],
        )
        got = list(dl.batches(0))
        assert len(got) == len(blobs) - 1
        assert dl.quarantine.ids() == [3]
        assert got[0][1].dtype == np.float32


class TestCostModelAndTune:
    def _space(self):
        from repro.tune.search import resolve_machine, workload_space

        return resolve_machine("summit"), workload_space("cosmoflow")

    def _plans(self, cosmo_lut):
        plugin, blobs = cosmo_lut
        g = plugin.declare_preprocessing(ListSource(blobs))
        return {
            "naive": compile_graph(g, optimize=False),
            "optimized": compile_graph(g),
        }

    def test_plan_sample_cost_reshapes_terms(self, deepcam_fix):
        from repro.core.plugins.base import SampleCost

        plugin, blobs = deepcam_fix
        g = plugin.declare_preprocessing(ListSource(blobs), holdout=0.5)
        naive = compile_graph(g, optimize=False)
        opt = compile_graph(g)
        base = SampleCost(stored_bytes=1000, h2d_bytes=500,
                          decoded_bytes=500, cpu_preprocess_elems=100)
        nc = naive.sample_cost(base, sample_elems=1000)
        oc = opt.sample_cost(base, sample_elems=1000)
        assert nc.stored_bytes == 2000  # late filter: 2x reads
        assert oc.stored_bytes == 1000  # prefilter: no inflation
        assert nc.cpu_preprocess_elems > oc.cpu_preprocess_elems

    def test_predict_throughput_ranks_optimized_above_naive(self, cosmo_lut):
        from repro.tune.costmodel import predict_throughput

        machine, space = self._space()
        plans = self._plans(cosmo_lut)
        cfg = space.config("plugin", staged=True, num_workers=4,
                          prefetch_depth=4, cache_fraction=0.3)
        cost = space.costs["plugin"]
        naive = predict_throughput(machine, space.workload, cost, cfg, 2048,
                                   plan=plans["naive"])
        opt = predict_throughput(machine, space.workload, cost, cfg, 2048,
                                 plan=plans["optimized"])
        bare = predict_throughput(machine, space.workload, cost, cfg, 2048)
        assert opt.steady_samples_per_s >= naive.steady_samples_per_s
        # the optimized plan's only residual is the tiny table-fraction pass
        assert opt.steady_samples_per_s <= bare.steady_samples_per_s

    def test_tune_picks_best_plan(self, cosmo_lut):
        from repro.tune.search import tune

        machine, space = self._space()
        result = tune(machine, space, samples_per_gpu=256, seed=1,
                      validate=False, plans=self._plans(cosmo_lut))
        assert result.best.plan == "optimized"
        assert {t.plan for t in result.trials} == {"naive", "optimized"}
        assert result.to_json()["best"]["plan"] == "optimized"

    def test_tune_without_plans_unchanged(self):
        from repro.tune.search import tune

        machine, space = self._space()
        result = tune(machine, space, samples_per_gpu=256, seed=1,
                      validate=False)
        assert result.best.plan is None

    def test_choose_placement_annotates_decode(self, cosmo_lut):
        from repro.tune.search import workload_space

        machine, _ = self._space()
        space = workload_space("deepcam")
        plugin, blobs = cosmo_lut
        plan = self._plans(cosmo_lut)["optimized"]
        decision = choose_placement(
            plan, machine, space.workload,
            {"cpu": space.costs["cpu"], "gpu": space.costs["gpu"]},
            staged=True, num_workers=4, prefetch_depth=4,
            cache_fraction=0.3,
        )
        assert decision.placement in ("cpu", "gpu")
        assert plan.graph.node("decode").device == decision.placement
        assert len(decision.ranked) == 2
        assert (decision.ranked[0][1].steady_samples_per_s
                >= decision.ranked[1][1].steady_samples_per_s)
        doc = decision.to_json()
        assert doc["placement"] == decision.placement

    def test_choose_placement_validates_keys(self, cosmo_lut):
        machine, space = self._space()
        plan = self._plans(cosmo_lut)["optimized"]
        with pytest.raises(ValueError):
            choose_placement(plan, machine, space.workload, {})
        with pytest.raises(ValueError):
            choose_placement(
                plan, machine, space.workload,
                {"tpu": space.costs["plugin"]},
            )
