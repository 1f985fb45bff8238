"""Tests for sources, ops, pipeline graph, executor, and loader."""

import numpy as np
import pytest

from repro.accel.device import V100, SimulatedGpu
from repro.core.plugins import CosmoflowLutPlugin, DeepcamDeltaPlugin
from repro.datasets import cosmoflow, deepcam
from repro.pipeline import (
    CachedSource,
    DataLoader,
    ListSource,
    TfRecordSource,
    TierSource,
)
from repro.pipeline.executor import FailedItem, PrefetchExecutor
from repro.pipeline.graph import Pipeline
from repro.pipeline.ops import (
    CastOp,
    DecodeOp,
    LabelTransformOp,
    Op,
    PipelineItem,
    RandomFlipOp,
    ReadOp,
)
from repro.storage import SampleCache, Tier, TierSpec, tfrecord


@pytest.fixture(scope="module")
def deepcam_blobs():
    cfg = deepcam.DeepcamConfig(height=16, width=24, n_channels=4)
    plugin = DeepcamDeltaPlugin("cpu")
    ds = deepcam.generate_dataset(5, cfg, seed=1)
    return plugin, [plugin.encode(s.data, s.label) for s in ds]


class TestSources:
    def test_list_source(self, deepcam_blobs):
        _, blobs = deepcam_blobs
        src = ListSource(blobs)
        assert len(src) == 5
        assert src.read(2) == blobs[2]

    def test_tier_source(self, tmp_path, deepcam_blobs):
        _, blobs = deepcam_blobs
        tier = Tier(TierSpec("t", 1, 1, 0), tmp_path)
        names = []
        for i, b in enumerate(blobs):
            tier.write(f"s{i}", b)
            names.append(f"s{i}")
        src = TierSource(tier, names)
        assert len(src) == 5
        assert src.read(3) == blobs[3]

    def test_tfrecord_source(self, tmp_path, deepcam_blobs):
        _, blobs = deepcam_blobs
        path = tmp_path / "d.tfr"
        with tfrecord.TfRecordWriter(path) as w:
            for b in blobs:
                w.write(b)
        src = TfRecordSource(path)
        assert len(src) == 5
        assert src.read(4) == blobs[4]

    def test_tfrecord_source_reuses_one_handle(self, tmp_path, deepcam_blobs):
        _, blobs = deepcam_blobs
        path = tmp_path / "d.tfr"
        with tfrecord.TfRecordWriter(path) as w:
            for b in blobs:
                w.write(b)
        src = TfRecordSource(path)
        assert src._fh is None  # opened lazily, not at construction
        src.read(0)
        fh = src._fh
        assert fh is not None
        for i in (3, 1, 4, 0, 2):  # shuffled epoch access, one handle
            assert src.read(i) == blobs[i]
            assert src._fh is fh
        src.close()
        assert src._fh is None
        assert src.read(2) == blobs[2]  # transparently re-opened
        assert src._fh is not None and src._fh is not fh
        src.close()

    def test_tfrecord_source_concurrent_reads(self, tmp_path, deepcam_blobs):
        import threading

        _, blobs = deepcam_blobs
        path = tmp_path / "d.tfr"
        with tfrecord.TfRecordWriter(path) as w:
            for b in blobs:
                w.write(b)
        errors = []

        with TfRecordSource(path) as src:
            def sweep(seed):
                rng = np.random.default_rng(seed)
                try:
                    for _ in range(200):
                        i = int(rng.integers(0, len(blobs)))
                        assert src.read(i) == blobs[i]
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=sweep, args=(s,)) for s in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []

    def test_cached_source_hits(self, deepcam_blobs):
        _, blobs = deepcam_blobs
        cache = SampleCache(10**9)
        src = CachedSource(ListSource(blobs), cache)
        src.read(0)
        src.read(0)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_cached_source_small_cache_evicts(self, deepcam_blobs):
        _, blobs = deepcam_blobs
        cache = SampleCache(len(blobs[0]) + 1)  # one blob fits
        src = CachedSource(ListSource(blobs), cache)
        for i in range(5):
            src.read(i)
        for i in range(5):
            src.read(i)
        assert cache.stats.hit_rate < 0.5


class TestOps:
    def test_read_decode_chain(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        pipe = Pipeline([ReadOp(ListSource(blobs)), DecodeOp(plugin)])
        item = pipe.run(1)
        assert item.tensor is not None and item.tensor.dtype == np.float16
        assert item.blob is None  # freed after decode
        assert item.meta["stored_bytes"] == len(blobs[1])

    def test_decode_requires_read(self, deepcam_blobs):
        plugin, _ = deepcam_blobs
        with pytest.raises(ValueError):
            DecodeOp(plugin)(PipelineItem(index=0))

    def test_flip_is_deterministic_per_epoch_and_index(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        op = RandomFlipOp(probability=0.5)
        outs = []
        for _ in range(2):
            item = PipelineItem(index=3, meta={"epoch": 2})
            item.blob = blobs[3]
            item = DecodeOp(plugin)(item)
            outs.append(op(item).tensor.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_flip_flips_label_with_tensor(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        # probability 1: always flips
        op = RandomFlipOp(probability=1.0)
        item = PipelineItem(index=0)
        item.blob = blobs[0]
        item = DecodeOp(plugin)(item)
        t0, l0 = item.tensor.copy(), item.label.copy()
        item = op(item)
        assert np.array_equal(item.tensor, t0[..., ::-1])
        assert np.array_equal(item.label, l0[..., ::-1])

    def test_flip_probability_zero(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        op = RandomFlipOp(probability=0.0)
        item = PipelineItem(index=0)
        item.blob = blobs[0]
        item = DecodeOp(plugin)(item)
        t0 = item.tensor.copy()
        assert np.array_equal(op(item).tensor, t0)

    def test_label_transform(self):
        item = PipelineItem(index=0, label=np.array([2.0]))
        out = LabelTransformOp(lambda l: l * 3)(item)
        assert out.label[0] == 6.0

    def test_cast_op(self):
        item = PipelineItem(index=0, tensor=np.ones(3, np.float16))
        out = CastOp(np.float32)(item)
        assert out.tensor.dtype == np.float32

    def test_pipeline_rejects_duplicate_stage_names(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        with pytest.raises(ValueError):
            Pipeline([ReadOp(ListSource(blobs)), ReadOp(ListSource(blobs))])

    def test_stage_times_recorded(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        pipe = Pipeline([ReadOp(ListSource(blobs)), DecodeOp(plugin)])
        pipe.run(0)
        times = pipe.stage_times()
        assert set(times) == {"read", "decode"}
        assert times["decode"] > 0


class TestExecutor:
    def _pipe(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        return Pipeline([ReadOp(ListSource(blobs)), DecodeOp(plugin)])

    def test_sync_and_threaded_agree(self, deepcam_blobs):
        pipe = self._pipe(deepcam_blobs)
        sync = [i.tensor for i in PrefetchExecutor(pipe, 0).run([0, 1, 2, 3])]
        thr = [i.tensor for i in PrefetchExecutor(pipe, 3, 2).run([0, 1, 2, 3])]
        for a, b in zip(sync, thr):
            assert np.array_equal(a, b)

    def test_order_preserved(self, deepcam_blobs):
        pipe = self._pipe(deepcam_blobs)
        order = [4, 0, 3, 1, 2]
        items = list(PrefetchExecutor(pipe, 2, 2).run(order))
        assert [i.index for i in items] == order

    def test_exception_propagates(self, deepcam_blobs):
        pipe = self._pipe(deepcam_blobs)
        with pytest.raises(IndexError):
            list(PrefetchExecutor(pipe, 2, 2).run([0, 99]))

    def test_early_close_does_not_hang(self, deepcam_blobs):
        pipe = self._pipe(deepcam_blobs)
        gen = PrefetchExecutor(pipe, 2, 1).run([0, 1, 2, 3, 4])
        next(gen)
        gen.close()  # must not deadlock

    def test_validation(self, deepcam_blobs):
        pipe = self._pipe(deepcam_blobs)
        with pytest.raises(ValueError):
            PrefetchExecutor(pipe, num_workers=-1)
        with pytest.raises(ValueError):
            PrefetchExecutor(pipe, prefetch_depth=0)


class TestDataLoader:
    def test_batches_shapes(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        dl = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=0)
        batches = list(dl.batches(0))
        assert len(batches) == 3  # 5 samples -> 2+2+1
        assert batches[0][0].shape == (2, 4, 16, 24)
        assert batches[-1][0].shape[0] == 1

    def test_shuffle_differs_by_epoch_but_reproducible(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        dl = DataLoader(ListSource(blobs), plugin, batch_size=1, seed=3)
        assert not np.array_equal(dl.epoch_order(0), dl.epoch_order(1))
        dl2 = DataLoader(ListSource(blobs), plugin, batch_size=1, seed=3)
        assert np.array_equal(dl.epoch_order(0), dl2.epoch_order(0))

    def test_no_shuffle_sequential(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        dl = DataLoader(ListSource(blobs), plugin, batch_size=1, shuffle=False)
        assert list(dl.epoch_order(0)) == [0, 1, 2, 3, 4]

    def test_len(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        assert len(DataLoader(ListSource(blobs), plugin, batch_size=2)) == 3

    def test_gpu_plugin_with_device(self):
        cfg = cosmoflow.CosmoflowConfig(grid=8, n_particles=3000)
        ds = cosmoflow.generate_dataset(3, cfg, seed=2)
        plugin = CosmoflowLutPlugin("gpu")
        blobs = [plugin.encode(s.data, s.label) for s in ds]
        dev = SimulatedGpu(spec=V100)
        dl = DataLoader(
            ListSource(blobs), plugin, batch_size=3, device=dev,
            extra_ops=[LabelTransformOp(cosmoflow.normalize_label)],
        )
        (batch, labels), = list(dl.batches(0))
        assert batch.dtype == np.float16
        assert labels.shape == (3, 4)
        assert np.abs(labels).max() <= 1.01  # normalized parameters
        assert dev.busy_seconds > 0

    def test_batch_size_validation(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        with pytest.raises(ValueError):
            DataLoader(ListSource(blobs), plugin, batch_size=0)


class TestExecutorDeadlockRegression:
    def test_small_depth_out_of_order_completion(self, deepcam_blobs):
        """Regression: depth < workers with inverted task durations used to
        deadlock (slots were acquired after task pickup, so a fast later
        task could hold the only slot while the consumer waited on an
        earlier one)."""
        import time

        from repro.pipeline.graph import Pipeline
        from repro.pipeline.ops import Op, PipelineItem, ReadOp

        class SlowEarly(Op):
            name = "slow_early"

            def __call__(self, item: PipelineItem) -> PipelineItem:
                # earlier indices take longer -> completion inverts order
                time.sleep(0.05 if item.index == 0 else 0.001)
                item.tensor = np.zeros(1)
                item.label = np.zeros(1)
                return item

        _, blobs = deepcam_blobs
        pipe = Pipeline([ReadOp(ListSource(blobs)), SlowEarly()])
        for _ in range(5):  # repeat to give the race a chance
            ex = PrefetchExecutor(pipe, num_workers=2, prefetch_depth=1)
            items = list(ex.run([0, 1, 2, 3, 4]))
            assert [i.index for i in items] == [0, 1, 2, 3, 4]


class TestDropLast:
    def test_drop_last_discards_partial(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs  # 5 samples
        dl = DataLoader(ListSource(blobs), plugin, batch_size=2,
                        shuffle=False, drop_last=True)
        batches = list(dl.batches(0))
        assert len(batches) == 2 == len(dl)
        assert all(b.shape[0] == 2 for b, _ in batches)

    def test_drop_last_noop_when_divisible(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        dl = DataLoader(ListSource(blobs[:4]), plugin, batch_size=2,
                        shuffle=False, drop_last=True)
        assert sum(b.shape[0] for b, _ in dl.batches(0)) == 4


class TestSourceIndexValidation:
    """Satellite: negative indices must not wrap around Python-style."""

    def test_list_source_bounds(self, deepcam_blobs):
        _, blobs = deepcam_blobs
        src = ListSource(blobs)
        for bad in (-1, -5, len(blobs), len(blobs) + 3):
            with pytest.raises(IndexError):
                src.read(bad)

    def test_tier_source_bounds(self, tmp_path, deepcam_blobs):
        _, blobs = deepcam_blobs
        tier = Tier(TierSpec("t", 1, 1, 0), tmp_path)
        tier.write("s0", blobs[0])
        src = TierSource(tier, ["s0"])
        with pytest.raises(IndexError):
            src.read(-1)
        with pytest.raises(IndexError):
            src.read(1)
        assert src.read(0) == blobs[0]

    def test_tfrecord_source_bounds(self, tmp_path, deepcam_blobs):
        _, blobs = deepcam_blobs
        path = tmp_path / "b.tfr"
        with tfrecord.TfRecordWriter(path) as w:
            for b in blobs[:2]:
                w.write(b)
        src = TfRecordSource(path)
        with pytest.raises(IndexError):
            src.read(-1)
        with pytest.raises(IndexError):
            src.read(2)


class TestCachedSourceVerification:
    def test_corrupt_blob_never_cached(self, deepcam_blobs):
        _, blobs = deepcam_blobs
        damaged = bytearray(blobs[0])
        damaged[-1] ^= 0xFF
        cache = SampleCache(10**9)
        src = CachedSource(ListSource([bytes(damaged)]), cache, verify=True)
        from repro.core.encoding.container import CorruptSampleError

        for _ in range(3):
            with pytest.raises(CorruptSampleError):
                src.read(0)
        assert len(cache) == 0  # the bad blob was never stored

    def test_clean_blob_cached_when_verifying(self, deepcam_blobs):
        _, blobs = deepcam_blobs
        cache = SampleCache(10**9)
        src = CachedSource(ListSource(blobs), cache, verify=True)
        assert src.read(1) == blobs[1]
        assert src.read(1) == blobs[1]
        assert cache.stats.hits == 1

    def test_failed_inner_read_not_cached(self, deepcam_blobs):
        _, blobs = deepcam_blobs

        class Exploding:
            def __len__(self):
                return 1

            def read(self, index):
                raise IOError("disk on fire")

        cache = SampleCache(10**9)
        src = CachedSource(Exploding(), cache)
        with pytest.raises(IOError):
            src.read(0)
        assert len(cache) == 0


class TestExecutorFailureIsolation:
    """Satellite regression: one failing sample with num_workers>=2 must
    surface its exception with the failing index, not hang, and shut the
    remaining workers down cleanly."""

    class _BoomOnIndex(Op):
        name = "boom"

        def __init__(self, bad_index):
            self.bad_index = bad_index

        def __call__(self, item: PipelineItem) -> PipelineItem:
            if item.index == self.bad_index:
                raise RuntimeError(f"decode failed for {item.index}")
            item.tensor = np.full(2, item.index, dtype=np.float32)
            item.label = np.zeros(1)
            return item

    def _pipe(self, blobs, bad_index):
        return Pipeline(
            [ReadOp(ListSource(blobs)), self._BoomOnIndex(bad_index)]
        )

    def test_exception_surfaces_with_failing_index_no_hang(
        self, deepcam_blobs
    ):
        import threading
        import time

        _, blobs = deepcam_blobs
        before = threading.active_count()
        ex = PrefetchExecutor(
            self._pipe(blobs, bad_index=2), num_workers=2, prefetch_depth=2
        )
        t0 = time.monotonic()
        with pytest.raises(RuntimeError) as ei:
            list(ex.run([0, 1, 2, 3, 4]))
        assert time.monotonic() - t0 < 5.0  # no wedged output buffer
        assert ei.value.sample_index == 2
        # remaining workers exit: thread count returns to the baseline
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before:
            assert time.monotonic() < deadline, "workers did not shut down"
            time.sleep(0.01)

    def test_items_before_failure_are_delivered(self, deepcam_blobs):
        _, blobs = deepcam_blobs
        ex = PrefetchExecutor(
            self._pipe(blobs, bad_index=3), num_workers=2, prefetch_depth=2
        )
        got = []
        with pytest.raises(RuntimeError):
            for item in ex.run([0, 1, 2, 3, 4]):
                got.append(item.index)
        assert got == [0, 1, 2]  # order preserved right up to the failure

    def test_yield_mode_delivers_failure_in_band(self, deepcam_blobs):
        from repro.pipeline.executor import FailedItem

        _, blobs = deepcam_blobs
        for workers in (0, 2):
            ex = PrefetchExecutor(
                self._pipe(blobs, bad_index=1), num_workers=workers,
                prefetch_depth=2,
            )
            out = list(ex.run([0, 1, 2], on_error="yield"))
            assert [type(o).__name__ for o in out] == [
                "PipelineItem", "FailedItem", "PipelineItem",
            ]
            failed = out[1]
            assert isinstance(failed, FailedItem)
            assert failed.index == 1
            assert isinstance(failed.error, RuntimeError)

    def test_sync_mode_attaches_index_too(self, deepcam_blobs):
        _, blobs = deepcam_blobs
        ex = PrefetchExecutor(self._pipe(blobs, bad_index=0), num_workers=0)
        with pytest.raises(RuntimeError) as ei:
            list(ex.run([0]))
        assert ei.value.sample_index == 0

    def test_invalid_on_error_rejected(self, deepcam_blobs):
        _, blobs = deepcam_blobs
        ex = PrefetchExecutor(self._pipe(blobs, 0), num_workers=0)
        with pytest.raises(ValueError):
            list(ex.run([0], on_error="explode"))


class TestExecutorStats:
    """Satellite: instrumented executor keeps ordering and exact counters
    across worker counts and prefetch depths."""

    def _pipe(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        return Pipeline([ReadOp(ListSource(blobs)), DecodeOp(plugin)])

    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    @pytest.mark.parametrize("prefetch_depth", [1, 2, 8])
    def test_ordering_and_counts(
        self, deepcam_blobs, num_workers, prefetch_depth
    ):
        from repro.tune.stats import StatsRegistry

        pipe = self._pipe(deepcam_blobs)
        stats = StatsRegistry()
        ex = PrefetchExecutor(
            pipe, num_workers=num_workers, prefetch_depth=prefetch_depth,
            stats=stats,
        )
        order = [4, 0, 3, 1, 2, 0, 4]
        items = list(ex.run(order))
        assert [i.index for i in items] == order
        snap = stats.snapshot()
        n, busy = snap["executor.items"]
        assert n == len(order)
        assert busy > 0.0
        assert snap.get("executor.failed", (0, 0.0))[0] == 0

    @pytest.mark.parametrize("num_workers", [0, 2, 3])
    def test_failed_items_counted_in_band(self, deepcam_blobs, num_workers):
        from repro.pipeline.executor import FailedItem
        from repro.tune.stats import StatsRegistry

        class Boom(Op):
            name = "boom"

            def __call__(self, item: PipelineItem) -> PipelineItem:
                if item.index % 2 == 1:
                    raise RuntimeError("odd index")
                item.tensor = np.zeros(1)
                item.label = np.zeros(1)
                return item

        _, blobs = deepcam_blobs
        pipe = Pipeline([ReadOp(ListSource(blobs)), Boom()])
        stats = StatsRegistry()
        ex = PrefetchExecutor(
            pipe, num_workers=num_workers, prefetch_depth=2, stats=stats
        )
        out = list(ex.run([0, 1, 2, 3, 4], on_error="yield"))
        assert [isinstance(o, FailedItem) for o in out] == [
            False, True, False, True, False,
        ]
        snap = stats.snapshot()
        assert snap["executor.failed"][0] == 2
        assert snap["executor.items"][0] == 3  # successes only

    def test_sync_path_counts_wait_as_starvation(self, deepcam_blobs):
        from repro.tune.stats import StatsRegistry

        pipe = self._pipe(deepcam_blobs)
        stats = StatsRegistry()
        ex = PrefetchExecutor(pipe, num_workers=0, stats=stats)
        list(ex.run([0, 1, 2]))
        snap = stats.snapshot()
        # the consumer is the producer: every busy second is a wait second
        assert snap["executor.wait"][1] == pytest.approx(
            snap["executor.items"][1]
        )

    def test_uninstrumented_executor_still_works(self, deepcam_blobs):
        pipe = self._pipe(deepcam_blobs)
        items = list(PrefetchExecutor(pipe, 2, 2).run([0, 1, 2]))
        assert [i.index for i in items] == [0, 1, 2]


class TestExecutionGrid:
    """One execution path: whatever plan the loader compiled — the
    plugin's declaration optimized (the LUT chain folded into an FP16
    table) or verbatim (int16 gather → ``log1p`` → ``fp16``) — whatever
    the group size and the worker count, an epoch with one corrupt blob
    is the same epoch — bytes, quarantine, raise position, counters — for
    a DeepCAM and a CosmoFlow blob set, and closing it early leaves no
    worker behind.  Each cell runs both blob sets under both
    ``optimize_graph`` settings."""

    PLANS = [None, True]  # the loader's two spellings of the declared graph
    OPTIMIZE = (True, False)
    BAD = 6

    @pytest.fixture(scope="class")
    def grid_sets(self):
        dc_plugin = DeepcamDeltaPlugin("cpu")
        dc = deepcam.generate_dataset(
            10, deepcam.DeepcamConfig(height=12, width=20, n_channels=4),
            seed=7,
        )
        cf_plugin = CosmoflowLutPlugin("cpu")
        cf = cosmoflow.generate_dataset(
            10, cosmoflow.CosmoflowConfig(grid=8, n_particles=3000), seed=7
        )
        sets = {
            "deepcam": (dc_plugin, [dc_plugin.encode(s.data, s.label)
                                    for s in dc]),
            "cosmoflow": (cf_plugin, [cf_plugin.encode(s.data, s.label)
                                      for s in cf]),
        }
        for _, blobs in sets.values():
            blobs[self.BAD] = b"not a container"
        return sets

    @staticmethod
    def _loader(blob_set, graph, optimize, batched, workers, policy):
        plugin, blobs = blob_set
        return DataLoader(
            ListSource(blobs), plugin, batch_size=4, seed=2, graph=graph,
            optimize_graph=optimize, batched_fetch=batched,
            num_workers=workers, prefetch_depth=2, bad_sample_policy=policy,
        )

    def _epoch(self, *cell):
        dl = self._loader(*cell)
        rows, raised_at = [], None
        try:
            for batch, labels in dl.batches(0):
                rows.append((batch.tobytes(), labels.tobytes()))
        except Exception as exc:  # noqa: BLE001 — the raise policy
            raised_at = exc.sample_index
        snap = dl.stats.snapshot()
        return {
            "rows": rows,
            "raised_at": raised_at,
            "quarantine": dl.quarantine.ids(),
            "items": snap["executor.items"][0],
            "failed": snap["executor.failed"][0],
        }

    def test_the_lut_plans_are_fused_and_unfused(self, grid_sets):
        ops = {
            optimize: [
                (type(op).__name__, op.name) for op in self._loader(
                    grid_sets["cosmoflow"], None, optimize, False, 0, "skip"
                ).plan.ops
            ]
            for optimize in self.OPTIMIZE
        }
        assert ops[True] == [("ReadOp", "read"), ("DecodeOp", "decode")]
        assert ops[False] == ops[True] + [
            ("ElementwiseOp", "log1p"), ("ElementwiseOp", "fp16")
        ]

    @pytest.mark.parametrize("policy", ["raise", "skip", "substitute"])
    @pytest.mark.parametrize("workers", [0, 3])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("graph", PLANS)
    def test_every_cell_is_the_same_epoch(
        self, grid_sets, graph, batched, workers, policy
    ):
        for name, blob_set in grid_sets.items():
            reference = self._epoch(blob_set, None, True, False, 0, policy)
            assert reference["failed"] == 1, name
            if policy == "raise":
                assert reference["raised_at"] == self.BAD, name
                assert reference["quarantine"] == [], name
            else:
                assert reference["raised_at"] is None, name
                assert reference["quarantine"] == [self.BAD], name
                assert reference["items"] == 9, name
            for optimize in self.OPTIMIZE:
                got = self._epoch(
                    blob_set, graph, optimize, batched, workers, policy
                )
                assert got == reference, (name, optimize)

    @pytest.mark.parametrize("workers", [0, 3])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("graph", PLANS)
    def test_early_close_joins_every_worker(
        self, grid_sets, graph, batched, workers
    ):
        import threading

        for blob_set in grid_sets.values():
            for optimize in self.OPTIMIZE:
                before = set(threading.enumerate())
                loader = self._loader(
                    blob_set, graph, optimize, batched, workers, "skip"
                )
                gen = loader.batches(0)
                next(gen)
                gen.close()
                left = [t for t in set(threading.enumerate()) - before
                        if t.is_alive()]
                assert left == []


class TestLoaderStatsAndReconfigure:
    def test_loader_records_epoch_and_batches(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        dl = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=0)
        list(dl.batches(0))
        snap = dl.stats.snapshot()
        assert snap["loader.epoch"][0] == 1
        assert snap["loader.epoch"][1] > 0.0
        assert snap["loader.batches"][0] == 3  # 5 samples -> 2+2+1
        assert snap["executor.items"][0] == 5

    def test_reconfigure_keeps_determinism_and_state(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        ref = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=7,
                         num_workers=2)
        want = [b for b, _ in ref.batches(1)]

        dl = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=7,
                        num_workers=0)
        list(dl.batches(0))
        stats_before = dl.stats
        pipeline_before = dl.pipeline
        dl.reconfigure(num_workers=2, prefetch_depth=8)
        assert dl.executor.num_workers == 2
        assert dl.executor.prefetch_depth == 8
        assert dl.stats is stats_before  # counters survive the swap
        assert dl.pipeline is pipeline_before
        got = [b for b, _ in dl.batches(1)]
        for a, b in zip(want, got):
            assert np.array_equal(a, b)
        assert dl.stats.snapshot()["loader.epoch"][0] == 2

    def test_reconfigure_partial_keeps_other_knob(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        dl = DataLoader(ListSource(blobs), plugin, num_workers=3,
                        prefetch_depth=5)
        dl.reconfigure(prefetch_depth=2)
        assert dl.executor.num_workers == 3
        assert dl.executor.prefetch_depth == 2
        dl.reconfigure(num_workers=1)
        assert dl.executor.num_workers == 1
        assert dl.executor.prefetch_depth == 2


class TestReconfigureMidEpoch:
    """Satellite: the adaptive controller may call ``reconfigure()`` while
    a ``batches()`` generator is still being consumed.  The in-flight epoch
    must finish on the executor it started with (order intact), the next
    epoch must pick up the new settings, and the shared stats registry must
    keep accumulating across the swap."""

    def _reference_epochs(self, deepcam_blobs, seed=11):
        plugin, blobs = deepcam_blobs
        ref = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=seed)
        return [
            [b for b, _ in ref.batches(epoch)] for epoch in (0, 1)
        ]

    @pytest.mark.parametrize(
        "before,after",
        [
            ((0, 4), (2, 4)),   # scale up from synchronous
            ((2, 4), (0, 4)),   # scale down to synchronous
            ((2, 1), (2, 8)),   # depth-only change
            ((1, 2), (4, 1)),   # both knobs at once
        ],
    )
    def test_order_preserved_across_mid_epoch_reconfigure(
        self, deepcam_blobs, before, after
    ):
        plugin, blobs = deepcam_blobs
        want0, want1 = self._reference_epochs(deepcam_blobs)
        dl = DataLoader(
            ListSource(blobs), plugin, batch_size=2, seed=11,
            num_workers=before[0], prefetch_depth=before[1],
        )
        gen = dl.batches(0)
        got0 = [next(gen)[0]]  # epoch under way...
        dl.reconfigure(num_workers=after[0], prefetch_depth=after[1])
        got0.extend(b for b, _ in gen)  # ...finishes on the old executor
        assert len(got0) == len(want0)
        for a, b in zip(got0, want0):
            assert np.array_equal(a, b)
        # the next epoch runs on the new executor and is still bit-exact
        assert dl.executor.num_workers == after[0]
        assert dl.executor.prefetch_depth == after[1]
        got1 = [b for b, _ in dl.batches(1)]
        assert len(got1) == len(want1)
        for a, b in zip(got1, want1):
            assert np.array_equal(a, b)

    def test_stats_accumulate_across_mid_epoch_reconfigure(
        self, deepcam_blobs
    ):
        plugin, blobs = deepcam_blobs
        dl = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=3,
                        num_workers=0)
        gen = dl.batches(0)
        next(gen)
        dl.reconfigure(num_workers=2, prefetch_depth=2)
        list(gen)
        list(dl.batches(1))
        snap = dl.stats.snapshot()
        # 5 samples/epoch × 2 epochs, counted by two different executors
        # into the one registry
        assert snap["executor.items"][0] == 10
        assert snap["loader.epoch"][0] == 2
        assert snap["loader.batches"][0] == 6
        assert snap["executor.items"][1] > 0.0

    def test_quarantine_log_survives_reconfigure(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        bad = list(blobs)
        bad[2] = b"not a container"
        dl = DataLoader(ListSource(bad), plugin, batch_size=2, seed=0,
                        shuffle=False, bad_sample_policy="skip")
        list(dl.batches(0))
        assert dl.quarantine.ids() == [2]
        log_before = dl.quarantine
        dl.reconfigure(num_workers=2)
        assert dl.quarantine is log_before
        list(dl.batches(1))
        assert len(dl.quarantine) == 2  # same sample quarantined again


class TestFailedItemSerialization:
    """Satellite: ``FailedItem`` must describe the failure without the live
    exception object — ``repr`` + formatted traceback, JSON-safe."""

    def _failed(self):
        def inner_raiser():
            raise RuntimeError("decode went sideways")

        try:
            inner_raiser()
        except RuntimeError as exc:
            return FailedItem(index=7, error=exc)

    def test_repr_and_traceback_captured_eagerly(self):
        item = self._failed()
        assert item.error_repr == "RuntimeError('decode went sideways')"
        assert "inner_raiser" in item.traceback
        assert item.traceback.rstrip().endswith(
            "RuntimeError: decode went sideways"
        )

    def test_to_json_is_json_safe(self):
        import json

        item = self._failed()
        wire = json.dumps(item.to_json())
        back = json.loads(wire)
        assert back["index"] == 7
        assert "decode went sideways" in back["error"]
        assert "inner_raiser" in back["traceback"]

    def test_exception_without_traceback(self):
        item = FailedItem(index=0, error=ValueError("never raised"))
        assert item.error_repr == "ValueError('never raised')"
        assert item.traceback == ""
        assert item.to_json()["traceback"] == ""

    def test_executor_delivered_failures_are_serializable(
        self, deepcam_blobs
    ):
        import json

        plugin, blobs = deepcam_blobs
        bad = list(blobs)
        bad[1] = b"garbage"
        pipe = Pipeline([ReadOp(ListSource(bad)), DecodeOp(plugin)])
        for workers in (0, 2):
            ex = PrefetchExecutor(pipe, num_workers=workers,
                                  prefetch_depth=2)
            out = list(ex.run([0, 1, 2], on_error="yield"))
            failed = out[1]
            assert isinstance(failed, FailedItem)
            rec = json.loads(json.dumps(failed.to_json()))
            assert rec["index"] == 1
            assert rec["error"]
            assert "Traceback" in rec["traceback"]


class TestOpRoundTrips:
    """Satellite: dtype round-trips and augmentation determinism."""

    def test_cast_op_fp16_fp32_round_trip_is_lossless(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        item = PipelineItem(index=0, blob=blobs[0])
        item = DecodeOp(plugin)(item)
        original = item.tensor.copy()
        assert original.dtype == np.float16
        item = CastOp(np.float32)(item)
        assert item.tensor.dtype == np.float32
        item = CastOp(np.float16)(item)
        # every FP16 value survives the FP32 round trip bit-for-bit
        assert item.tensor.tobytes() == original.tobytes()

    def test_cast_op_int_round_trip_is_lossless(self):
        t = np.arange(-300, 300, dtype=np.int16)
        item = PipelineItem(index=0, tensor=t.copy())
        item = CastOp(np.int32)(item)
        item = CastOp(np.int16)(item)
        assert item.tensor.tobytes() == t.tobytes()

    def test_cast_op_same_dtype_does_not_copy(self):
        t = np.ones(4, dtype=np.float32)
        out = CastOp(np.float32)(PipelineItem(index=0, tensor=t))
        assert out.tensor is t  # astype(copy=False) short-circuits

    def test_flip_deterministic_across_runs_and_instances(self, deepcam_blobs):
        """The flip seed derives from (epoch, index) only — two fresh op
        instances agree per epoch, and reruns of the same epoch schedule
        are bit-identical."""
        plugin, blobs = deepcam_blobs
        for epoch in range(3):
            outs = []
            for _ in range(2):  # fresh op instance each run
                op = RandomFlipOp(probability=0.5)
                item = PipelineItem(
                    index=2, blob=blobs[2], meta={"epoch": epoch}
                )
                item = op(DecodeOp(plugin)(item))
                outs.append((item.tensor.tobytes(), item.label.tobytes()))
            assert outs[0] == outs[1]

    def test_flip_decision_varies_with_epoch(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        op = RandomFlipOp(probability=0.5)
        flips = set()
        for epoch in range(8):
            item = PipelineItem(index=1, blob=blobs[1], meta={"epoch": epoch})
            item = op(DecodeOp(plugin)(item))
            flips.add(bool(item.meta.get("flipped")))
        assert flips == {True, False}  # epoch enters the seed


class TestLabelTransformWithBadSamplePolicy:
    """Satellite: LabelTransformOp composes with every bad-sample policy —
    transformed labels for survivors, quarantine unaffected."""

    def _loader(self, deepcam_blobs, policy):
        plugin, blobs = deepcam_blobs
        bad = list(blobs)
        bad[2] = b"not a container"
        return DataLoader(
            ListSource(bad), plugin, batch_size=1, shuffle=False,
            bad_sample_policy=policy,
            extra_ops=[LabelTransformOp(lambda l: l.astype(np.float32) * 2)],
        )

    def test_skip_policy_transforms_survivors(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        dl = self._loader(deepcam_blobs, "skip")
        labels = [l[0] for _, l in dl.batches(0)]
        assert len(labels) == 4  # sample 2 skipped
        assert dl.quarantine.ids() == [2]
        for got, i in zip(labels, [0, 1, 3, 4]):
            _, want = plugin.decode(blobs[i])
            assert np.array_equal(got, want.astype(np.float32) * 2)

    def test_substitute_policy_reuses_transformed_label(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        dl = self._loader(deepcam_blobs, "substitute")
        labels = [l[0] for _, l in dl.batches(0)]
        assert len(labels) == 5  # geometry preserved
        # slot 2 repeats the transformed label of sample 1
        assert np.array_equal(labels[2], labels[1])
        _, want = plugin.decode(blobs[1])
        assert np.array_equal(labels[2], want.astype(np.float32) * 2)

    def test_raise_policy_propagates_with_index(self, deepcam_blobs):
        dl = self._loader(deepcam_blobs, "raise")
        with pytest.raises(Exception) as ei:
            list(dl.batches(0))
        assert ei.value.sample_index == 2


class TestThreadSafeStageTimes:
    """Satellite: per-worker stopwatch accumulation merged on read."""

    def test_counts_exact_under_threaded_executor(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        pipe = Pipeline([ReadOp(ListSource(blobs)), DecodeOp(plugin)])
        order = [i % 5 for i in range(40)]
        list(PrefetchExecutor(pipe, num_workers=4, prefetch_depth=4).run(order))
        merged = pipe.stopwatch
        assert merged.counts["read"] == len(order)
        assert merged.counts["decode"] == len(order)
        assert merged.totals["decode"] > 0.0

    def test_counts_exact_under_raw_thread_hammer(self, deepcam_blobs):
        import threading

        plugin, blobs = deepcam_blobs
        pipe = Pipeline([ReadOp(ListSource(blobs)), DecodeOp(plugin)])
        per_thread = 25

        def hammer():
            for i in range(per_thread):
                pipe.run(i % 5)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert pipe.stopwatch.counts["read"] == 6 * per_thread
        assert pipe.stage_times()["read"] > 0.0

    def test_stopwatch_property_returns_fresh_merged_copy(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        pipe = Pipeline([ReadOp(ListSource(blobs)), DecodeOp(plugin)])
        pipe.run(0)
        a = pipe.stopwatch
        pipe.run(1)
        b = pipe.stopwatch
        assert a is not b
        assert a.counts["read"] == 1  # snapshot unaffected by later runs
        assert b.counts["read"] == 2

    def test_flush_stage_stats_publishes_deltas(self, deepcam_blobs):
        from repro.tune.stats import StatsRegistry

        plugin, blobs = deepcam_blobs
        pipe = Pipeline([ReadOp(ListSource(blobs)), DecodeOp(plugin)])
        stats = StatsRegistry()
        for i in range(3):
            pipe.run(i)
        pipe.flush_stage_stats(stats)
        snap = stats.snapshot()
        assert snap["pipeline.read"][0] == 3
        assert snap["pipeline.decode"][1] > 0.0
        # second flush publishes only the delta
        pipe.run(3)
        pipe.run(4)
        pipe.flush_stage_stats(stats)
        snap = stats.snapshot()
        assert snap["pipeline.read"][0] == 5
        # nothing new: a further flush adds nothing
        flushed = pipe.flush_stage_stats(stats)
        assert flushed == {}
        assert stats.snapshot()["pipeline.read"][0] == 5

    def test_loader_publishes_pipeline_counters(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        dl = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=0,
                        num_workers=2)
        list(dl.batches(0))
        snap = dl.stats.snapshot()
        assert snap["pipeline.read"][0] == 5
        assert snap["pipeline.decode"][0] == 5
        assert snap["pipeline.decode"][1] > 0.0
        list(dl.batches(1))
        assert dl.stats.snapshot()["pipeline.read"][0] == 10
