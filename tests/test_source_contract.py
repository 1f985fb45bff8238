"""One read contract, checked on every source in ``src/``.

A ``SampleSource`` is ``__len__`` + ``read(index)`` plus one optional
batch method, ``read_batch_slots(indices) -> list[bytes | Exception]``.
Whatever a source is made of — a list, a record file, a cache, a fault
injector, a TCP connection, a whole cluster — the same rules hold:

* ``read`` returns the sample's bytes and raises ``IndexError`` for a
  negative or past-the-end index (never Python's wrap-around);
* a group read equals the scalar reads, in request order, duplicates
  allowed, ``[]`` → ``[]``;
* a bad index or a corrupt sample fails *its own slot*, the other slots
  are delivered;
* the strict helper ``read_batch`` raises the first failed slot's error;
* a duck-typed source with only ``__len__``/``read`` is batch-readable
  through the helper's loop tier.
"""

from contextlib import contextmanager

import pytest

from repro.cluster import ClusterSource, ClusterWorker, Dispatcher
from repro.core.encoding.container import CorruptSampleError
from repro.core.plugins import DeepcamDeltaPlugin
from repro.datasets import deepcam
from repro.ingest import IngestWriter, LiveIngestSource, ManifestSource
from repro.pipeline.sources import (
    CachedSource,
    ListSource,
    TfRecordSource,
    TierSource,
    read_batch,
    read_batch_slots,
)
from repro.robust import FaultInjector, FaultPlan, RetryingSource, RetryPolicy
from repro.serve import DataServer, RemoteSource
from repro.storage import SampleCache, ShardedSource, ShardedWriter, Tier, TierSpec
from repro.storage.tfrecord import TfRecordWriter
from repro.tiering import MemoryTier, TieredSource, TierLevel, TierManager

N = 8
CORRUPT = 5
SPEC = TierSpec("t", read_bw_gbps=1.0, write_bw_gbps=1.0, latency_s=0.0)


@pytest.fixture(scope="module")
def blobs():
    cfg = deepcam.DeepcamConfig(height=12, width=20, n_channels=4)
    plugin = DeepcamDeltaPlugin("cpu")
    return [
        plugin.encode(s.data, s.label)
        for s in deepcam.generate_dataset(N, cfg, seed=11)
    ]


def _damaged(blobs):
    """``blobs`` with one payload bit of sample ``CORRUPT`` flipped."""
    bad = bytearray(blobs[CORRUPT])
    bad[-5] ^= 1
    return [bytes(bad) if i == CORRUPT else b for i, b in enumerate(blobs)]


# -- one factory per source: ``(blobs, tmp_path) -> source`` -----------------
# Wrappers and servers are configured to verify, where they can.


@contextmanager
def _list(blobs, tmp):
    yield ListSource(blobs)


@contextmanager
def _tier(blobs, tmp):
    tier = Tier(SPEC, tmp)
    names = [f"s{i}.blob" for i in range(len(blobs))]
    for name, blob in zip(names, blobs):
        tier.write(name, blob)
    yield TierSource(tier, names)


@contextmanager
def _tfrecord(blobs, tmp):
    with TfRecordWriter(tmp / "d.tfr") as w:
        for blob in blobs:
            w.write(blob)
    with TfRecordSource(tmp / "d.tfr") as src:
        yield src


@contextmanager
def _sharded(blobs, tmp):
    with ShardedWriter(tmp / "data", 1) as w:
        for blob in blobs:
            w.write(blob)
    yield ShardedSource(tmp / "data", 1)


@contextmanager
def _cached(blobs, tmp):
    yield CachedSource(ListSource(blobs), SampleCache(1e9), verify=True)


@contextmanager
def _retrying(blobs, tmp):
    yield RetryingSource(
        ListSource(blobs),
        RetryPolicy(max_attempts=2, base_delay_s=0.0),
        verify=True,
    )


@contextmanager
def _fault(blobs, tmp):
    yield FaultInjector(ListSource(blobs), FaultPlan())


@contextmanager
def _tiered(blobs, tmp):
    manager = TierManager([TierLevel(MemoryTier(SPEC), 1e9)], verify=True)
    yield TieredSource(ListSource(blobs), manager)


def _ingested(blobs, tmp):
    with IngestWriter(tmp, fingerprint={}) as writer:
        for blob in blobs:
            writer.append(blob)
        return writer.publish()


@contextmanager
def _manifest(blobs, tmp):
    with ManifestSource(tmp, _ingested(blobs, tmp)) as src:
        yield src


@contextmanager
def _live(blobs, tmp):
    _ingested(blobs, tmp)
    with LiveIngestSource(tmp) as src:
        yield src


@contextmanager
def _remote(blobs, tmp):
    with DataServer(ListSource(blobs), verify=True) as server:
        with RemoteSource(*server.address) as src:
            yield src


@contextmanager
def _cluster(blobs, tmp):
    dispatcher = Dispatcher(lease_s=5.0, replication=2, n_buckets=4).start()
    workers = [
        ClusterWorker(
            ListSource(blobs),
            dispatcher=dispatcher.address,
            cache=SampleCache(1e9),  # verify-before-cache on every worker
        ).start()
        for _ in range(2)
    ]
    try:
        with ClusterSource(dispatcher.address, timeout_s=2.0) as src:
            yield src
    finally:
        for worker in workers:
            worker.close(drain=False, timeout_s=2.0)
        dispatcher.close(drain=False, timeout_s=2.0)


#: name → (factory, does it checksum what it serves?)
SOURCES = {
    "ListSource": (_list, False),
    "TierSource": (_tier, False),
    "TfRecordSource": (_tfrecord, False),
    "ShardedSource": (_sharded, False),
    "CachedSource": (_cached, True),
    "RetryingSource": (_retrying, True),
    "FaultInjector": (_fault, False),
    "TieredSource": (_tiered, True),
    "ManifestSource": (_manifest, False),
    "LiveIngestSource": (_live, False),
    "RemoteSource": (_remote, True),
    "ClusterSource": (_cluster, True),
}


@pytest.fixture(params=sorted(SOURCES))
def make(request, tmp_path):
    """``make(blobs)`` → context manager yielding the parametrized source."""
    factory, verifies = SOURCES[request.param]

    def _make(blobs):
        return factory(blobs, tmp_path)

    _make.verifies = verifies
    return _make


class TestReadContract:
    def test_len_and_scalar_bytes(self, make, blobs):
        with make(blobs) as src:
            assert len(src) == N
            assert [src.read(i) for i in range(N)] == blobs

    def test_negative_and_past_end_raise_index_error(self, make, blobs):
        with make(blobs) as src:
            for bad in (-1, N, N + 91):
                with pytest.raises(IndexError):
                    src.read(bad)

    def test_group_equals_scalar_reads_in_request_order(self, make, blobs):
        order = [3, 0, 3, 7, 1]  # shuffled, with a duplicate
        with make(blobs) as src:
            assert read_batch_slots(src, order) == [blobs[i] for i in order]
            assert read_batch_slots(src, [4]) == [blobs[4]]
            assert read_batch_slots(src, []) == []

    def test_bad_index_fails_its_own_slot(self, make, blobs):
        with make(blobs) as src:
            slots = read_batch_slots(src, [0, N + 91, 1, -1])
            assert slots[0] == blobs[0] and slots[2] == blobs[1]
            assert isinstance(slots[1], IndexError)
            assert isinstance(slots[3], IndexError)
            # a group of nothing but bad indices still answers per slot
            assert all(
                isinstance(s, IndexError) for s in read_batch_slots(src, [N, -1])
            )

    def test_corrupt_sample_fails_its_own_slot(self, make, blobs):
        damaged = _damaged(blobs)
        with make(damaged) as src:
            slots = read_batch_slots(src, range(N))
            for i in range(N):
                if i != CORRUPT:
                    assert slots[i] == blobs[i]
            if make.verifies:
                assert isinstance(slots[CORRUPT], CorruptSampleError)
                with pytest.raises(CorruptSampleError):
                    src.read(CORRUPT)
            else:  # passes bytes through; checksumming is a wrapper's job
                assert slots[CORRUPT] == damaged[CORRUPT]

    def test_strict_helper_raises_the_first_slot_error(self, make, blobs):
        with make(_damaged(blobs)) as src:
            assert read_batch(src, [2, 1]) == [blobs[2], blobs[1]]
            with pytest.raises(IndexError):
                read_batch(src, [0, N + 91, CORRUPT])
            if make.verifies:
                with pytest.raises(CorruptSampleError):
                    read_batch(src, [0, CORRUPT, N + 91])


def test_duck_typed_source_goes_through_the_loop_tier(blobs):
    """``__len__`` + ``read`` is the whole required contract."""

    class Plain:
        def __init__(self):
            self.reads = []

        def __len__(self):
            return N

        def read(self, index):
            self.reads.append(index)
            if not 0 <= index < N:
                raise IndexError(index)
            return blobs[index]

    src = Plain()
    slots = read_batch_slots(src, [2, N, 2])
    assert slots[0] == slots[2] == blobs[2]
    assert isinstance(slots[1], IndexError)
    assert src.reads == [2, N, 2]  # one scalar read per slot, in order
    with pytest.raises(IndexError):
        read_batch(src, [0, N])
    # a legacy strict method is not part of the contract: never called
    src.read_batch = lambda indices: pytest.fail("strict method dispatched")
    assert read_batch(src, [1]) == [blobs[1]]
