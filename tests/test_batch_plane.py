"""The batch plane, end to end: scatter-gather framing, batched sources,
vectorized multi-sample decode, executor batch mode, and the conformance
checks that hold every batched path bit-identical to the scalar one.

Layered to match docs/batching.md:

* wire — ``frame_parts``/``send_frame``/``batch_reply_parts`` are
  wire-identical to the scalar framing and move payload buffers by
  reference (zero-copy regression tests assert buffer *identity*, not
  just equality);
* sources — ``read_batch``/``read_batch_slots`` equal a sequential read
  loop for every source, under arbitrary batch sizes, orderings and
  duplicated indices (Hypothesis property tests);
* decode — ``check_batch_equivalence`` proves a ``decode_group`` ≡ a
  scalar decode loop for both workload plugins, including the
  mixed-shape fallback and simulated-GPU accounting;
* executor/loader — ``batched_fetch=True`` yields bit-identical epochs
  across worker counts for compiled plans (whose fetch and decode must
  both ride the batch plane), with unchanged quarantine
  semantics, a whole-exchange failure confined to its own group;
* tune/graph — the cost model's batch-size axis and the compiled plan's
  ``batch_overhead`` amortization reproduce the scalar numbers at B=1.
"""

import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.device import V100, SimulatedGpu
from repro.conformance import check_batch_equivalence
from repro.core.encoding.container import CorruptSampleError
from repro.core.plugins import CosmoflowLutPlugin, DeepcamDeltaPlugin
from repro.datasets import cosmoflow, deepcam
from repro.pipeline import CachedSource, DataLoader, ListSource, TfRecordSource
from repro.observe import TraceRecorder
from repro.pipeline.sources import read_batch, read_batch_slots
from repro.robust import FaultInjector, FaultPlan
from repro.serve import DataServer, RemoteSource, protocol
from repro.storage import SampleCache, TierSpec, tfrecord
from repro.tiering import MemoryTier, TieredSource, TierLevel, TierManager


@pytest.fixture(scope="module")
def deepcam_fix():
    cfg = deepcam.DeepcamConfig(height=12, width=20, n_channels=4)
    plugin = DeepcamDeltaPlugin("cpu")
    ds = deepcam.generate_dataset(10, cfg, seed=7)
    return plugin, [plugin.encode(s.data, s.label) for s in ds]


@pytest.fixture(scope="module")
def cosmo_fix():
    cfg = cosmoflow.CosmoflowConfig(grid=8, n_particles=3000)
    plugin = CosmoflowLutPlugin("cpu")
    ds = cosmoflow.generate_dataset(6, cfg, seed=9)
    return plugin, [plugin.encode(s.data, s.label) for s in ds]


# --------------------------------------------------------------------------
# wire framing
# --------------------------------------------------------------------------


class TestFrameParts:
    def test_wire_identical_to_pack_frame(self):
        parts = [b"abc", memoryview(b"defgh"), bytearray(b"ij"), b""]
        joined = b"".join(bytes(p) for p in parts)
        assert (
            b"".join(bytes(p) for p in protocol.frame_parts(protocol.ST_OK, parts))
            == protocol.pack_frame(protocol.ST_OK, joined)
        )

    def test_empty_parts_equal_empty_body(self):
        assert (
            b"".join(protocol.frame_parts(protocol.OP_INFO, []))
            == protocol.pack_frame(protocol.OP_INFO, b"")
        )

    def test_parts_enter_by_reference(self):
        """Zero-copy regression: the blob buffer itself is in the list."""
        blob = b"x" * 4096
        out = protocol.frame_parts(protocol.ST_OK, [blob])
        assert out[1] is blob

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            protocol.frame_parts(0x7F, [b""])

    def test_send_frame_round_trips_over_a_socket(self, deepcam_fix):
        _, blobs = deepcam_fix
        a, b = socket.socketpair()
        try:
            parts = [protocol._COUNT.pack(2), blobs[0], blobs[1]]
            sent = protocol.send_frame(a, protocol.ST_OK, parts)
            expect = b"".join(bytes(p) for p in parts)
            assert sent == protocol._HEAD.size + len(expect) + protocol._CRC.size
            kind, body = protocol.recv_frame(b, frame_timeout_s=5.0)
            assert kind == protocol.ST_OK
            assert body == expect
        finally:
            a.close()
            b.close()

    def test_send_frame_handles_many_small_buffers(self):
        """More parts than one sendmsg iovec batch still lands intact."""
        parts = [bytes([i % 251]) * 3 for i in range(2000)]
        a, b = socket.socketpair()
        try:
            b.settimeout(5.0)
            done = []
            import threading

            t = threading.Thread(
                target=lambda: done.append(
                    protocol.send_frame(a, protocol.ST_OK, parts)
                )
            )
            t.start()
            kind, body = protocol.recv_frame(b, frame_timeout_s=10.0)
            t.join(timeout=10.0)
            assert kind == protocol.ST_OK
            assert body == b"".join(parts)
        finally:
            a.close()
            b.close()


class TestBatchReplyBody:
    def _slots(self, blobs):
        err = protocol.pack_json({"error": "OSError", "message": "boom"})
        return [
            (protocol.SLOT_OK, blobs[0]),
            (protocol.SLOT_ERROR, err),
            (protocol.SLOT_OK, b""),
            (protocol.SLOT_OK, blobs[1]),
        ]

    def test_round_trip(self, deepcam_fix):
        _, blobs = deepcam_fix
        slots = self._slots(blobs)
        body = b"".join(bytes(p) for p in protocol.batch_reply_parts(slots))
        out = protocol.unpack_batch_reply(body)
        assert [(s, bytes(p)) for s, p in out] == [
            (s, bytes(p)) for s, p in slots
        ]

    def test_payloads_are_views_of_the_body(self, deepcam_fix):
        """Unpacking a batch reply never copies a payload."""
        _, blobs = deepcam_fix
        slots = self._slots(blobs)
        body = b"".join(bytes(p) for p in protocol.batch_reply_parts(slots))
        for _, payload in protocol.unpack_batch_reply(body):
            assert isinstance(payload, memoryview)
            assert payload.obj is body

    def test_reply_parts_hold_blobs_by_reference(self, deepcam_fix):
        _, blobs = deepcam_fix
        parts = protocol.batch_reply_parts([(protocol.SLOT_OK, blobs[3])])
        assert any(p is blobs[3] for p in parts)

    def test_empty_batch(self):
        body = b"".join(protocol.batch_reply_parts([]))
        assert protocol.unpack_batch_reply(body) == []

    def test_unknown_slot_status_rejected(self):
        with pytest.raises(ValueError):
            protocol.batch_reply_parts([(0x42, b"")])

    def test_truncated_and_overrun_bodies_are_protocol_errors(
        self, deepcam_fix
    ):
        _, blobs = deepcam_fix
        body = b"".join(
            bytes(p)
            for p in protocol.batch_reply_parts(
                [(protocol.SLOT_OK, blobs[0])]
            )
        )
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_batch_reply(b"\x01")  # shorter than the count
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_batch_reply(body[: protocol._COUNT.size + 2])
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_batch_reply(body[:-1])  # payload overruns
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_batch_reply(body + b"\x00")  # trailing bytes

    def test_indices_round_trip(self):
        for arr in ([], [0], [5, 3, 3, 9, 0]):
            got = protocol.unpack_indices(
                protocol.pack_indices(np.asarray(arr, dtype=np.int64))
            )
            assert got.tolist() == arr
            assert got.dtype == np.int64


# --------------------------------------------------------------------------
# batched sources
# --------------------------------------------------------------------------


class _Recorder:
    """Minimal source wrapper counting which read paths were exercised."""

    def __init__(self, blobs, with_slots=False):
        self._blobs = list(blobs)
        self.reads = 0
        self.slot_calls = 0
        if with_slots:
            self.read_batch_slots = self._read_batch_slots

    def __len__(self):
        return len(self._blobs)

    def read(self, index):
        self.reads += 1
        return self._blobs[index]

    def _read_batch_slots(self, indices):
        self.slot_calls += 1
        return [self._blobs[int(i)] for i in indices]


class TestSourceBatchPlane:
    def test_list_source_read_batch(self, deepcam_fix):
        _, blobs = deepcam_fix
        src = ListSource(blobs)
        order = [3, 0, 3, 9, 1]
        assert read_batch(src, order) == [blobs[i] for i in order]
        with pytest.raises(IndexError):
            read_batch(src, [0, len(blobs)])

    def test_tfrecord_source_read_batch(self, tmp_path, deepcam_fix):
        _, blobs = deepcam_fix
        path = tmp_path / "d.tfr"
        with tfrecord.TfRecordWriter(path) as w:
            for b in blobs:
                w.write(b)
        with TfRecordSource(path) as src:
            order = [9, 2, 2, 0, 5]
            assert read_batch(src, order) == [blobs[i] for i in order]
            assert read_batch(src, []) == []

    def test_cached_source_batches_only_the_misses(self, deepcam_fix):
        _, blobs = deepcam_fix
        inner = _Recorder(blobs, with_slots=True)
        src = CachedSource(inner, SampleCache(10**9))
        assert read_batch(src, [0, 1, 2]) == blobs[:3]
        assert (inner.slot_calls, inner.reads) == (1, 0)
        # warm batch: served entirely from the cache, inner untouched
        assert read_batch(src, [2, 0, 1]) == [blobs[2], blobs[0], blobs[1]]
        assert (inner.slot_calls, inner.reads) == (1, 0)
        # partial: one inner batched read for exactly the misses
        assert read_batch(src, [1, 4, 0, 3]) == [
            blobs[1], blobs[4], blobs[0], blobs[3]
        ]
        assert (inner.slot_calls, inner.reads) == (2, 0)

    def test_helper_falls_back_to_a_read_loop(self, deepcam_fix):
        _, blobs = deepcam_fix
        plain = _Recorder(blobs)  # no batch methods at all
        assert read_batch(plain, [1, 1, 4]) == [blobs[1], blobs[1], blobs[4]]
        assert plain.reads == 3

    def test_helper_prefers_the_batched_method(self, deepcam_fix):
        _, blobs = deepcam_fix
        src = _Recorder(blobs, with_slots=True)
        assert read_batch(src, [0, 2]) == [blobs[0], blobs[2]]
        assert (src.slot_calls, src.reads) == (1, 0)

    def test_slots_helper_dispatches_to_native_slots(self, deepcam_fix):
        _, blobs = deepcam_fix
        src = _Recorder(blobs, with_slots=True)
        assert read_batch_slots(src, [5, 6]) == [blobs[5], blobs[6]]
        assert (src.slot_calls, src.reads) == (1, 0)

    def test_slots_helper_empty_batch(self, deepcam_fix):
        _, blobs = deepcam_fix
        assert read_batch_slots(ListSource(blobs), []) == []


class _Counting(ListSource):
    """A batch-capable inner source that counts how it was asked."""

    def __init__(self, blobs):
        super().__init__(blobs)
        self.scalar_reads = 0
        self.batches = []  # the index list of each batched call

    def read(self, index):
        self.scalar_reads += 1
        return super().read(index)

    def read_batch_slots(self, indices):
        self.batches.append([int(i) for i in indices])
        return [ListSource.read(self, int(i)) for i in indices]


def _bitflipped(blobs, index):
    bad = bytearray(blobs[index])
    bad[-5] ^= 1
    return [bytes(bad) if i == index else b for i, b in enumerate(blobs)]


class TestBatchNativeWrappers:
    """Every wrapper amortizes a group: one inner batched read of exactly
    the samples it cannot serve itself, each failure in its own slot."""

    def _check_cached_group(self, slots, blobs, inner, cache):
        assert inner.batches == [list(range(8))] and inner.scalar_reads == 0
        assert (cache.stats.gets, cache.stats.misses) == (8, 8)
        assert isinstance(slots[5], CorruptSampleError)
        assert [s for i, s in enumerate(slots) if i != 5] == [
            b for i, b in enumerate(blobs[:8]) if i != 5
        ]
        assert 5 not in cache and all(i in cache for i in range(8) if i != 5)

    def test_cached_verify_fills_a_group_in_one_inner_batch(self, deepcam_fix):
        _, blobs = deepcam_fix
        inner = _Counting(_bitflipped(blobs, 5))
        cache = SampleCache(1e9)
        src = CachedSource(inner, cache, verify=True)
        slots = read_batch_slots(src, range(8))
        self._check_cached_group(slots, blobs, inner, cache)
        # the second call refetches only the sample that was never cached
        again = read_batch_slots(src, range(8))
        assert inner.batches == [list(range(8)), [5]]
        assert isinstance(again[5], CorruptSampleError)

    def test_caching_server_fills_a_group_in_one_inner_batch(self, deepcam_fix):
        _, blobs = deepcam_fix
        inner = _Counting(_bitflipped(blobs, 5))
        cache = SampleCache(1e9)
        with DataServer(inner, cache=cache) as server:
            with RemoteSource(*server.address) as remote:
                slots = remote.read_batch_slots(range(8))
                assert remote.stats.snapshot()["remote.read_batch"][0] == 1
        self._check_cached_group(slots, blobs, inner, cache)

    def test_cached_group_opens_one_cache_span(self, deepcam_fix):
        _, blobs = deepcam_fix
        src = CachedSource(ListSource(blobs), SampleCache(1e9))
        src.read(2)
        rec = TraceRecorder()
        with rec.trace("root"):
            read_batch_slots(src, [1, 2, 3])
        (span,) = [s for s in rec.spans() if s.name == "cache"]
        assert span.meta == {"n": 3, "hits": 1, "misses": 2}

    def test_fault_injector_keeps_a_remote_group_in_one_frame(
        self, deepcam_fix
    ):
        _, blobs = deepcam_fix
        with DataServer(ListSource(blobs)) as server:
            with RemoteSource(*server.address) as remote:
                src = FaultInjector(remote, FaultPlan())
                assert read_batch_slots(src, [0, 1, 2, 3]) == blobs[:4]
            served = server.stats.snapshot()
        assert served["serve.read_batch"][0] == 1
        assert "serve.read" not in served

    def test_fault_injector_group_equals_the_scalar_loop(self, deepcam_fix):
        _, blobs = deepcam_fix
        plan = FaultPlan(io_error_rate=0.3, truncate_rate=0.2,
                         bitflip_rate=0.2, latency_rate=0.2,
                         corrupt_ids={4}, seed=5)
        order = [3, 0, 3, 9, 4, 1, 4, 7]

        def outcome(slot):
            return slot if isinstance(slot, bytes) else (type(slot), str(slot))

        scalar = FaultInjector(ListSource(blobs), plan)
        looped = []
        for i in order:
            try:
                looped.append(scalar.read(i))
            except OSError as exc:
                looped.append(exc)
        batched = FaultInjector(ListSource(blobs), plan)
        slots = read_batch_slots(batched, order)
        assert [outcome(s) for s in slots] == [outcome(s) for s in looped]
        assert any(isinstance(s, OSError) for s in slots)  # faults did fire
        assert batched.stats == scalar.stats

    def test_tiered_source_batches_only_the_non_resident(self, deepcam_fix):
        _, blobs = deepcam_fix
        spec = TierSpec("ram", read_bw_gbps=1.0, write_bw_gbps=1.0,
                        latency_s=0.0)
        damaged = _bitflipped(blobs, 5)

        def tiered(inner):
            manager = TierManager(
                [TierLevel(MemoryTier(spec), 1e9)], verify=True
            )
            return TieredSource(inner, manager), manager

        inner = _Counting(damaged)
        src, manager = tiered(inner)
        warm = [0, 2]
        assert read_batch_slots(src, warm) == [blobs[0], blobs[2]]
        slots = read_batch_slots(src, range(8))
        # one inner batched read of exactly the k=6 non-resident samples
        assert inner.batches == [warm, [1, 3, 4, 5, 6, 7]]
        assert inner.scalar_reads == 0
        assert isinstance(slots[5], CorruptSampleError)
        assert manager.lookup(5) is None  # never admitted
        assert [s for i, s in enumerate(slots) if i != 5] == [
            b for i, b in enumerate(blobs[:8]) if i != 5
        ]
        # the tier counters are those of the scalar loop over the same reads
        loop_src, loop_manager = tiered(ListSource(damaged))
        for i in warm + list(range(8)):
            try:
                loop_src.read(i)
            except CorruptSampleError:
                pass
        loop_manager.lookup(5)
        assert manager.stats.snapshot() == loop_manager.stats.snapshot()


class TestCacheZeroCopy:
    def test_get_view_returns_a_view_of_the_stored_blob(self, deepcam_fix):
        _, blobs = deepcam_fix
        cache = SampleCache(10**9)
        cache.put(0, blobs[0])
        view = cache.get_view(0)
        assert isinstance(view, memoryview)
        assert view.obj is blobs[0]  # zero-copy: not an owned copy
        assert bytes(view) == blobs[0]

    def test_get_view_miss_and_stats(self):
        cache = SampleCache(100)
        assert cache.get_view("absent") is None
        cache.put("k", b"abc")
        cache.get_view("k")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1


# --------------------------------------------------------------------------
# property tests: read_batch ≡ sequential read
# --------------------------------------------------------------------------


class TestBatchReadProperties:
    @given(order=st.lists(st.integers(0, 9), max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_list_source_batch_equals_loop(self, deepcam_fix, order):
        _, blobs = deepcam_fix
        src = ListSource(blobs)
        expect = [src.read(i) for i in order]
        assert read_batch(src, order) == expect
        assert read_batch_slots(src, order) == expect

    @given(order=st.lists(st.integers(0, 9), max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_cached_source_batch_equals_loop(self, deepcam_fix, order):
        _, blobs = deepcam_fix
        # a cache that can only hold ~3 blobs: the property must hold
        # through evictions and partial-hit batches alike
        src = CachedSource(
            ListSource(blobs), SampleCache(3 * len(blobs[0]) + 1)
        )
        assert read_batch(src, order) == [blobs[i] for i in order]

    @given(order=st.lists(st.integers(0, 9), max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_tfrecord_source_batch_equals_loop(
        self, tmp_path_factory, deepcam_fix, order
    ):
        _, blobs = deepcam_fix
        path = tmp_path_factory.getbasetemp() / "prop.tfr"
        if not path.exists():
            with tfrecord.TfRecordWriter(path) as w:
                for b in blobs:
                    w.write(b)
        with TfRecordSource(path) as src:
            assert read_batch(src, order) == [blobs[i] for i in order]

    def test_batch_of_one_and_empty(self, deepcam_fix):
        _, blobs = deepcam_fix
        src = ListSource(blobs)
        assert read_batch(src, []) == []
        assert read_batch(src, [7]) == [blobs[7]]
        assert read_batch_slots(src, [7]) == [blobs[7]]


# --------------------------------------------------------------------------
# vectorized decode conformance
# --------------------------------------------------------------------------


class TestBatchDecodeEquivalence:
    def test_deepcam_batched_decode_bit_identical(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        report = check_batch_equivalence(plugin, blobs)
        report.raise_if_failed()
        assert report.codec == "batch"

    def test_cosmoflow_batched_decode_bit_identical(self, cosmo_fix):
        plugin, blobs = cosmo_fix
        check_batch_equivalence(plugin, blobs).raise_if_failed()

    def test_mixed_shape_batch_falls_back_bit_identically(self):
        """Samples of different geometry can't stack into one vectorized
        pass; the fallback loop must still be bit-identical."""
        plugin = DeepcamDeltaPlugin("cpu")
        blobs = []
        for h, w, seed in ((8, 12, 1), (16, 8, 2), (8, 12, 3)):
            cfg = deepcam.DeepcamConfig(height=h, width=w, n_channels=3)
            s = deepcam.generate_dataset(1, cfg, seed=seed)[0]
            blobs.append(plugin.encode(s.data, s.label))
        check_batch_equivalence(plugin, blobs).raise_if_failed()

    def test_gpu_placement_batch_keeps_device_accounting(self):
        """A group is one launch per kernel: the same bytes and flops as
        the scalar decodes, paying at most the launch overheads less."""
        cfg = cosmoflow.CosmoflowConfig(grid=8, n_particles=2000)
        plugin = CosmoflowLutPlugin("gpu")
        ds = cosmoflow.generate_dataset(4, cfg, seed=11)
        blobs = [plugin.encode(s.data, s.label) for s in ds]
        check_batch_equivalence(plugin, blobs).raise_if_failed()
        scalar, batch = SimulatedGpu(spec=V100), SimulatedGpu(spec=V100)
        for blob in blobs:
            plugin.decode(blob, scalar)
        plugin.decode_batch(blobs, batch)
        for attr in ("bytes_moved", "flops"):
            assert sum(getattr(k, attr) for k in scalar.launches) == sum(
                getattr(k, attr) for k in batch.launches
            )
        saved = len(scalar.launches) - len(batch.launches)
        assert saved == 6  # 8 launches -> 2
        gap = scalar.busy_seconds - batch.busy_seconds
        assert 0 < gap <= saved * V100.launch_overhead_s + 1e-15

    def test_a_lying_decode_batch_is_caught(self, deepcam_fix):
        plugin, blobs = deepcam_fix

        class Lying(DeepcamDeltaPlugin):
            def decode_group(self, blobs, func=None, device=None):
                pairs = [
                    (t.copy(), label)
                    for t, label in super().decode_group(blobs, func, device)
                ]
                if len(pairs) > 1:
                    t, _ = pairs[1]
                    t.flat[0] += 1  # one element, one sample
                return pairs

        report = check_batch_equivalence(Lying("cpu"), blobs)
        assert not report.ok
        assert len(report.mismatches) == 1

    def test_empty_batch(self, deepcam_fix):
        plugin, _ = deepcam_fix
        assert plugin.decode_batch([]) == []


# --------------------------------------------------------------------------
# executor / loader batch mode
# --------------------------------------------------------------------------


def _epoch_bytes(loader, epoch=0):
    return [
        (b.tobytes(), l.tobytes()) for b, l in loader.batches(epoch)
    ]


class TestLoaderBatchMode:
    @pytest.mark.parametrize("workers", [0, 3])
    def test_batched_fetch_is_bit_identical(self, deepcam_fix, workers):
        plugin, blobs = deepcam_fix
        reference = _epoch_bytes(
            DataLoader(ListSource(blobs), plugin, batch_size=4, seed=3)
        )
        batched = DataLoader(
            ListSource(blobs), plugin, batch_size=4, seed=3,
            num_workers=workers, batched_fetch=True,
        )
        assert _epoch_bytes(batched) == reference
        snap = dict(batched.stats.snapshot())
        assert snap["executor.items"][0] == len(blobs)
        assert snap["executor.groups"][0] == 3  # ceil(10 / 4)

    @pytest.mark.parametrize("workload", ["deepcam_fix", "cosmo_fix"])
    def test_compiled_plan_fetches_over_the_batch_plane(
        self, request, workload
    ):
        """A compiled plan's read stage is batch-native by construction:
        one batched read per group, no scalar read, same bytes as the
        scalar default epoch."""
        plugin, blobs = request.getfixturevalue(workload)
        blobs = (blobs * 2)[:12]
        reference = _epoch_bytes(
            DataLoader(ListSource(blobs), plugin, batch_size=4, seed=3)
        )
        counting = _Recorder(blobs, with_slots=True)
        compiled = DataLoader(
            counting, plugin, batch_size=4, seed=3, graph=True,
            batched_fetch=True,
        )
        assert _epoch_bytes(compiled) == reference
        assert (counting.slot_calls, counting.reads) == (3, 0)
        assert compiled.stats.snapshot()["executor.groups"][0] == 3

    @pytest.mark.parametrize("workers", [0, 2])
    def test_whole_exchange_failure_fails_its_group_only(
        self, deepcam_fix, workers
    ):
        """A batched read that raises as a whole (retries exhausted, dead
        socket) costs exactly its own group, under the loader's policy,
        whichever thread prepared the group."""
        plugin, blobs = deepcam_fix
        blobs = (blobs * 2)[:12]

        class DiesOnFive(_Recorder):
            def _read_batch_slots(self, indices):
                if 5 in indices:
                    raise OSError("exchange failed")
                return super()._read_batch_slots(indices)

        dl = DataLoader(
            DiesOnFive(blobs, with_slots=True), plugin, batch_size=4,
            shuffle=False, bad_sample_policy="skip", batched_fetch=True,
            num_workers=workers,
        )
        delivered = sum(len(batch) for batch, _ in dl.batches(0))
        assert delivered == 8
        assert dl.quarantine.ids() == [4, 5, 6, 7]
        snap = dl.stats.snapshot()
        assert snap["executor.items"][0] == 8
        assert snap["executor.failed"][0] == 4

    def test_batched_fetch_gpu_placement_identical(self):
        cfg = cosmoflow.CosmoflowConfig(grid=8, n_particles=2500)
        plugin = CosmoflowLutPlugin("gpu")
        ds = cosmoflow.generate_dataset(6, cfg, seed=5)
        blobs = [plugin.encode(s.data, s.label) for s in ds]

        def run(batched):
            return _epoch_bytes(DataLoader(
                ListSource(blobs), plugin, batch_size=3, seed=1,
                device=SimulatedGpu(spec=V100), batched_fetch=batched,
            ))

        assert run(True) == run(False)

    def test_skip_policy_quarantines_identically(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        bad = list(blobs)
        bad[6] = b"garbage"

        def run(batched):
            dl = DataLoader(
                ListSource(bad), plugin, batch_size=4, seed=2,
                bad_sample_policy="skip", batched_fetch=batched,
            )
            return _epoch_bytes(dl), dl.quarantine.ids()

        scalar_rows, scalar_q = run(False)
        batch_rows, batch_q = run(True)
        assert batch_rows == scalar_rows
        assert batch_q == scalar_q == [6]

    def test_raise_policy_carries_the_sample_index(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        bad = list(blobs)
        bad[2] = b"garbage"
        dl = DataLoader(
            ListSource(bad), plugin, batch_size=5, shuffle=False,
            batched_fetch=True,
        )
        with pytest.raises(Exception) as exc_info:
            list(dl.batches(0))
        assert getattr(exc_info.value, "sample_index", None) == 2

    def test_reconfigure_retunes_fetch_granularity(self, deepcam_fix):
        plugin, blobs = deepcam_fix
        dl = DataLoader(
            ListSource(blobs), plugin, batch_size=2, seed=4,
            batched_fetch=True,
        )
        reference = _epoch_bytes(
            DataLoader(ListSource(blobs), plugin, batch_size=5, seed=4)
        )
        dl.reconfigure(batch_size=5)
        assert dl.executor.fetch_batch_size == 5
        assert _epoch_bytes(dl) == reference

    def test_remote_batched_epoch_bit_identical(self, deepcam_fix):
        """One READ_BATCH round-trip per training batch over a real
        server, byte-equal to the all-local scalar epoch."""
        plugin, blobs = deepcam_fix
        reference = _epoch_bytes(
            DataLoader(ListSource(blobs), plugin, batch_size=4, seed=6)
        )
        with DataServer(ListSource(blobs)) as server:
            remote = RemoteSource(*server.address)
            dl = DataLoader(
                remote, plugin, batch_size=4, seed=6, batched_fetch=True,
            )
            got = _epoch_bytes(dl)
            snap = dict(remote.stats.snapshot())
            remote.close()
        assert got == reference
        assert snap["remote.read_batch"][0] == 3  # one per batch


# --------------------------------------------------------------------------
# tune: the batch-size axis
# --------------------------------------------------------------------------


class TestTuneBatchAxis:
    def _space(self):
        from repro.tune.search import resolve_machine, workload_space

        return resolve_machine("summit"), workload_space("deepcam")

    def test_fetch_overhead_amortizes_with_batch_size(self):
        from repro.tune.costmodel import predict_throughput

        machine, space = self._space()
        cost = space.costs["base"]
        small = space.config("base", batch_size=1)
        big = space.config("base", batch_size=32)
        p1 = predict_throughput(
            machine, space.workload, cost, small, 2048,
            fetch_overhead_s=2e-3,
        )
        p32 = predict_throughput(
            machine, space.workload, cost, big, 2048,
            fetch_overhead_s=2e-3,
        )
        assert p32.steady_samples_per_s > p1.steady_samples_per_s
        # without the fixed overhead there is nothing to amortize: the
        # B=1 prediction must equal the overhead-free one exactly
        bare = predict_throughput(machine, space.workload, cost, small, 2048)
        zero = predict_throughput(
            machine, space.workload, cost, small, 2048, fetch_overhead_s=0.0
        )
        assert bare.steady_samples_per_s == zero.steady_samples_per_s

    def test_negative_overhead_rejected(self):
        from repro.tune.costmodel import predict_throughput

        machine, space = self._space()
        with pytest.raises(ValueError):
            predict_throughput(
                machine, space.workload, space.costs["base"],
                space.config("base"), 2048, fetch_overhead_s=-1.0,
            )

    def test_tune_picks_the_amortizing_batch_size(self):
        from repro.tune.search import tune

        machine, space = self._space()
        res = tune(
            machine, space, seed=0, validate=False,
            batch_sizes=(1, 4, 32), fetch_overhead_s=2e-3,
        )
        assert res.best.config.batch_size == 32

    def test_without_the_axis_batch_size_stays_fixed(self):
        from repro.tune.search import tune

        machine, space = self._space()
        res = tune(machine, space, seed=0, validate=False, batch_size=6)
        assert res.best.config.batch_size == 6


# --------------------------------------------------------------------------
# graph cost: batch_overhead amortization
# --------------------------------------------------------------------------


class TestGraphBatchCost:
    def _plan(self, deepcam_fix, overhead):
        from repro.graph.compiler import compile_graph
        from repro.graph.ir import PipelineGraph

        plugin, blobs = deepcam_fix
        g = PipelineGraph("batchy")
        g.read(ListSource(blobs))
        g.decode(plugin, batch_overhead=overhead)
        return compile_graph(g, optimize=False)

    def _base(self):
        from repro.core.plugins.base import SampleCost

        return SampleCost(
            stored_bytes=1000, h2d_bytes=500,
            decoded_bytes=500, cpu_preprocess_elems=100,
        )

    def test_batch_size_one_reproduces_the_scalar_cost(self, deepcam_fix):
        plan = self._plan(deepcam_fix, 0.5)
        base = self._base()
        assert (
            plan.sample_cost(base, sample_elems=1000, batch_size=1)
            == plan.sample_cost(base, sample_elems=1000)
        )

    def test_overhead_amortizes_monotonically(self, deepcam_fix):
        plan = self._plan(deepcam_fix, 0.5)
        base = self._base()
        costs = [
            plan.sample_cost(base, sample_elems=1000, batch_size=b)
            for b in (1, 2, 8, 64)
        ]
        elems = [c.cpu_preprocess_elems for c in costs]
        assert elems == sorted(elems, reverse=True)
        # half the decode work is per-batch: at B→∞ it halves (the plan
        # integerizes element counts, so allow one element of rounding)
        assert abs(elems[-1] - elems[0] * (0.5 + 0.5 / 64)) <= 1

    def test_zero_overhead_is_batch_size_invariant(self, deepcam_fix):
        plan = self._plan(deepcam_fix, 0.0)
        base = self._base()
        assert (
            plan.sample_cost(base, sample_elems=1000, batch_size=64)
            == plan.sample_cost(base, sample_elems=1000, batch_size=1)
        )

    def test_invalid_knobs_rejected(self, deepcam_fix):
        from repro.graph.ir import OpAttrs

        with pytest.raises(ValueError):
            OpAttrs(batch_overhead=1.5)
        with pytest.raises(ValueError):
            OpAttrs(batch_overhead=-0.1)
        plan = self._plan(deepcam_fix, 0.5)
        with pytest.raises(ValueError):
            plan.sample_cost(self._base(), sample_elems=10, batch_size=0)
