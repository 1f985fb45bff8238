"""Additional property/stress tests across subsystem invariants."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plugins import DeepcamDeltaPlugin
from repro.datasets import deepcam
from repro.ml.distributed import ring_allreduce
from repro.pipeline import DataLoader, ListSource
from repro.pipeline.executor import PrefetchExecutor
from repro.pipeline.graph import Pipeline
from repro.pipeline.ops import DecodeOp, ReadOp
from repro.simulate.events import Environment, Resource


@pytest.fixture(scope="module")
def tiny_loader_parts():
    cfg = deepcam.DeepcamConfig(height=16, width=24, n_channels=2)
    plugin = DeepcamDeltaPlugin("cpu")
    ds = deepcam.generate_dataset(7, cfg, seed=9)
    blobs = [plugin.encode(s.data, s.label) for s in ds]
    return plugin, blobs


class TestLoaderProperties:
    @given(batch_size=st.integers(1, 8), epoch=st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_every_sample_exactly_once_per_epoch(
        self, tiny_loader_parts, batch_size, epoch
    ):
        plugin, blobs = tiny_loader_parts
        dl = DataLoader(ListSource(blobs), plugin, batch_size=batch_size,
                        seed=4)
        order = dl.epoch_order(epoch)
        assert sorted(order) == list(range(len(blobs)))
        total = sum(b.shape[0] for b, _ in dl.batches(epoch))
        assert total == len(blobs)

    @given(workers=st.integers(0, 4), depth=st.integers(1, 6))
    @settings(max_examples=12, deadline=None)
    def test_executor_invariant_under_concurrency(
        self, tiny_loader_parts, workers, depth
    ):
        plugin, blobs = tiny_loader_parts
        pipe = Pipeline([ReadOp(ListSource(blobs)), DecodeOp(plugin)])
        ex = PrefetchExecutor(pipe, num_workers=workers,
                              prefetch_depth=depth)
        indices = [3, 0, 6, 1, 5, 2, 4]
        items = list(ex.run(indices))
        assert [i.index for i in items] == indices


class TestDesProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0.01, 2.0), st.floats(0.0, 1.0)),
            min_size=1, max_size=15,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_resource_never_exceeds_capacity(self, jobs, capacity):
        env = Environment()
        res = Resource(env, capacity=capacity)
        peak = {"v": 0}

        def job(hold, start):
            yield env.timeout(start)
            yield res.request()
            peak["v"] = max(peak["v"], res.in_use)
            assert res.in_use <= capacity
            yield env.timeout(hold)
            res.release()

        for hold, start in jobs:
            env.process(job(hold, start))
        env.run()
        assert res.in_use == 0
        assert peak["v"] <= capacity

    @given(
        st.lists(st.floats(0.01, 5.0), min_size=1, max_size=10),
        st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_makespan_bounds(self, holds, capacity):
        # total time must lie between max(hold) and sum(hold)
        env = Environment()
        res = Resource(env, capacity=capacity)

        def job(hold):
            yield from res.acquire(hold)

        for h in holds:
            env.process(job(h))
        env.run()
        assert max(holds) - 1e-9 <= env.now <= sum(holds) + 1e-9


class TestAllreduceProperties:
    @given(
        st.integers(1, 6),
        st.integers(1, 40),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_ring_equals_mean(self, ranks, n, seed):
        rng = np.random.default_rng(seed)
        chunks = [rng.standard_normal(n) for _ in range(ranks)]
        want = np.mean(chunks, axis=0)
        out = ring_allreduce(chunks)
        for o in out:
            assert np.allclose(o, want, rtol=1e-9, atol=1e-9)


class TestThreadSafety:
    def test_parallel_decode_is_safe(self, tiny_loader_parts):
        """Plugins decode fresh arrays per call; hammer them from threads."""
        plugin, blobs = tiny_loader_parts
        reference = [plugin.decode(b)[0] for b in blobs]
        errors: list[Exception] = []

        def worker():
            try:
                for _ in range(10):
                    for i, b in enumerate(blobs):
                        t, _ = plugin.decode(b)
                        assert np.array_equal(t, reference[i])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
