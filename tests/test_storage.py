"""Tests for the storage substrate: tiers, containers, staging, cache."""

import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    SampleCache,
    Tier,
    TierSpec,
    read_time,
    stage_dataset,
    tfrecord,
    write_time,
)


class TestTierSpec:
    def test_read_time_model(self):
        spec = TierSpec("t", read_bw_gbps=2.0, write_bw_gbps=1.0,
                        latency_s=1e-3)
        assert read_time(spec, 0) == pytest.approx(1e-3)
        assert read_time(spec, 2_000_000_000) == pytest.approx(1.001)
        assert write_time(spec, 1_000_000_000) == pytest.approx(1.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            TierSpec("t", read_bw_gbps=0, write_bw_gbps=1, latency_s=0)
        with pytest.raises(ValueError):
            TierSpec("t", read_bw_gbps=1, write_bw_gbps=1, latency_s=-1)
        spec = TierSpec("t", read_bw_gbps=1, write_bw_gbps=1, latency_s=0)
        with pytest.raises(ValueError):
            read_time(spec, -1)


class TestTier:
    def test_write_read_roundtrip(self, tmp_path):
        tier = Tier(TierSpec("t", 1, 1, 0), tmp_path / "t")
        tier.write("a/b.bin", b"hello")
        assert tier.read("a/b.bin") == b"hello"
        assert tier.used_bytes == 5

    def test_capacity_enforced(self, tmp_path):
        tier = Tier(
            TierSpec("t", 1, 1, 0, capacity_bytes=10), tmp_path / "t"
        )
        tier.write("a", b"12345")
        with pytest.raises(OSError):
            tier.write("b", b"123456789")

    def test_path_escape_blocked(self, tmp_path):
        tier = Tier(TierSpec("t", 1, 1, 0), tmp_path / "t")
        with pytest.raises(ValueError):
            tier.path("../outside")


class TestTierIncrementalAccounting:
    """used_bytes is a counter maintained on write/delete, not a walk."""

    def test_overwrite_charges_only_the_delta(self, tmp_path):
        tier = Tier(TierSpec("t", 1, 1, 0, capacity_bytes=10), tmp_path / "t")
        tier.write("a", b"12345678")
        tier.write("a", b"123")  # shrink in place
        assert tier.used_bytes == 3
        tier.write("a", b"1234567890")  # grow back to exactly capacity
        assert tier.used_bytes == 10
        with pytest.raises(OSError):
            tier.write("b", b"x")

    def test_delete_reclaims_capacity(self, tmp_path):
        tier = Tier(TierSpec("t", 1, 1, 0, capacity_bytes=10), tmp_path / "t")
        tier.write("a", b"1234567890")
        assert not tier.has_room(1)
        assert tier.delete("a")
        assert tier.used_bytes == 0 and tier.has_room(10)
        assert not tier.delete("a")  # already gone, nothing double-counted
        assert tier.used_bytes == 0

    def test_construction_picks_up_existing_files(self, tmp_path):
        Tier(TierSpec("t", 1, 1, 0), tmp_path / "t").write("old", b"12345")
        again = Tier(TierSpec("t", 1, 1, 0), tmp_path / "t")
        assert again.used_bytes == 5

    def test_rescan_sees_out_of_band_writes(self, tmp_path):
        tier = Tier(TierSpec("t", 1, 1, 0), tmp_path / "t")
        tier.write("a", b"123")
        (tier.root / "sneaky").write_bytes(b"45")  # behind the tier's back
        assert tier.used_bytes == 3
        assert tier.rescan() == 5
        assert tier.used_bytes == 5

    def test_accounting_never_walks_the_directory(self, tmp_path, monkeypatch):
        tier = Tier(TierSpec("t", 1, 1, 0, capacity_bytes=100), tmp_path / "t")

        def boom(self):  # a walk after construction is a perf regression
            raise AssertionError("used_bytes walked the directory tree")

        monkeypatch.setattr(Tier, "_scan", boom)
        tier.write("a", b"12345")
        tier.write("a", b"123456")
        assert tier.used_bytes == 6
        assert tier.has_room(94) and not tier.has_room(95)
        assert tier.delete("a")
        assert tier.used_bytes == 0


class TestTfRecord:
    def test_roundtrip_plain(self, tmp_path):
        path = tmp_path / "r.tfr"
        records = [b"one", b"two" * 100, b""]
        with tfrecord.TfRecordWriter(path) as w:
            for r in records:
                w.write(r)
        assert tfrecord.read_records(path) == records

    def test_roundtrip_gzip(self, tmp_path):
        path = tmp_path / "r.tfr.gz"
        records = [bytes([i]) * 50 for i in range(10)]
        with tfrecord.TfRecordWriter(path, compression="gzip") as w:
            for r in records:
                w.write(r)
        assert tfrecord.read_records(path, compression="gzip") == records

    def test_gzip_actually_compresses(self, tmp_path):
        payload = b"\x00" * 100_000
        p1, p2 = tmp_path / "a", tmp_path / "b"
        with tfrecord.TfRecordWriter(p1) as w:
            w.write(payload)
        with tfrecord.TfRecordWriter(p2, compression="gzip") as w:
            w.write(payload)
        assert p2.stat().st_size < p1.stat().st_size / 10

    def test_random_access_via_index(self, tmp_path):
        path = tmp_path / "r.tfr"
        records = [f"rec{i}".encode() * (i + 1) for i in range(5)]
        with tfrecord.TfRecordWriter(path) as w:
            for r in records:
                w.write(r)
        index = tfrecord.build_index(path)
        assert len(index) == 5
        # shuffled access matches
        for i in (3, 0, 4, 2, 1):
            off, length = index[i]
            assert tfrecord.read_record_at(path, off, length) == records[i]

    def test_gzip_refuses_random_access(self, tmp_path):
        path = tmp_path / "r.tfr.gz"
        with tfrecord.TfRecordWriter(path, compression="gzip") as w:
            w.write(b"data")
        with pytest.raises(ValueError, match="random-access"):
            tfrecord.build_index(path)

    def test_crc_detects_corruption(self, tmp_path):
        path = tmp_path / "r.tfr"
        with tfrecord.TfRecordWriter(path) as w:
            w.write(b"sensitive payload bytes")
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="CRC"):
            tfrecord.read_records(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "r.tfr"
        with tfrecord.TfRecordWriter(path) as w:
            w.write(b"0123456789")
        path.write_bytes(path.read_bytes()[:-6])
        with pytest.raises(ValueError):
            tfrecord.read_records(path)

    def test_bad_compression_arg(self, tmp_path):
        with pytest.raises(ValueError):
            tfrecord.TfRecordWriter(tmp_path / "x", compression="lz4")

    @given(st.lists(st.binary(max_size=200), max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, records):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.tfr"
            with tfrecord.TfRecordWriter(path) as w:
                for r in records:
                    w.write(r)
            assert tfrecord.read_records(path) == records


class TestStaging:
    def test_stage_copies_and_reports(self, tmp_path):
        pfs = Tier(TierSpec("pfs", 1.0, 1.0, 0.01), tmp_path / "pfs")
        nvme = Tier(TierSpec("nvme", 5.0, 2.0, 0.0001), tmp_path / "nvme")
        names = [f"f{i}" for i in range(3)]
        for n in names:
            pfs.write(n, n.encode() * 100)
        report = stage_dataset(pfs, nvme, names)
        assert report.n_files == 3
        assert report.total_bytes == sum(200 for _ in names)
        for n in names:
            assert nvme.read(n) == pfs.read(n)
        assert report.modeled_seconds > 0

    def test_stage_respects_capacity(self, tmp_path):
        pfs = Tier(TierSpec("pfs", 1.0, 1.0, 0.0), tmp_path / "pfs")
        nvme = Tier(
            TierSpec("nvme", 5.0, 2.0, 0.0, capacity_bytes=100),
            tmp_path / "nvme",
        )
        pfs.write("big", b"x" * 200)
        with pytest.raises(OSError):
            stage_dataset(pfs, nvme, ["big"])


class TestSampleCache:
    def test_hit_miss_accounting(self):
        cache = SampleCache(100)
        assert cache.get("a") is None
        cache.put("a", b"12345")
        assert cache.get("a") == b"12345"
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = SampleCache(10)
        cache.put("a", b"1234")
        cache.put("b", b"1234")
        cache.get("a")  # refresh a
        cache.put("c", b"1234")  # evicts b (LRU)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1
        assert cache.stats.evicted_bytes == 4

    def test_evicted_bytes_accumulates(self):
        cache = SampleCache(10)
        cache.put("a", b"12345")
        cache.put("b", b"12345")
        cache.put("c", b"1234567890")  # displaces both
        assert cache.stats.evictions == 2
        assert cache.stats.evicted_bytes == 10
        cache.invalidate("c")  # invalidation is not an eviction
        assert cache.stats.evicted_bytes == 10

    def test_oversized_blob_not_cached(self):
        cache = SampleCache(10)
        assert not cache.put("big", b"x" * 11)
        assert len(cache) == 0

    def test_replace_updates_bytes(self):
        cache = SampleCache(100)
        cache.put("a", b"xxxx")
        cache.put("a", b"yy")
        assert cache.used_bytes == 2

    def test_smaller_samples_cache_more(self):
        # the compression-enables-caching effect, directly
        big, small = SampleCache(100), SampleCache(100)
        for i in range(20):
            big.put(i, b"x" * 20)  # 5 fit
            small.put(i, b"x" * 10)  # 10 fit
        assert len(small) > len(big)

    def test_clear(self):
        cache = SampleCache(100)
        cache.put("a", b"12")
        cache.clear()
        assert len(cache) == 0 and cache.used_bytes == 0

    def test_zero_capacity(self):
        cache = SampleCache(0)
        assert not cache.put("a", b"x")
        with pytest.raises(ValueError):
            SampleCache(-1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.binary(min_size=1, max_size=30)),
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_capacity_invariant_property(self, ops):
        cache = SampleCache(64)
        for key, blob in ops:
            cache.put(key, blob)
            assert cache.used_bytes <= 64
            assert cache.used_bytes == sum(
                len(cache._entries[k]) for k in cache._entries
            )


class TestSharding:
    def _write(self, tmp_path, n_samples=10, n_shards=4):
        from repro.storage.sharding import ShardedWriter

        prefix = tmp_path / "data"
        payloads = [f"sample-{i}".encode() * (i + 1) for i in range(n_samples)]
        with ShardedWriter(prefix, n_shards) as w:
            for p in payloads:
                w.write(p)
        return prefix, payloads

    def test_round_robin_layout(self, tmp_path):
        from repro.storage.sharding import ShardedWriter, shard_name
        from repro.storage import tfrecord

        prefix, payloads = self._write(tmp_path)
        shard0 = tfrecord.read_records(shard_name(prefix, 0, 4))
        assert shard0 == [payloads[0], payloads[4], payloads[8]]

    def test_sharded_source_covers_everything(self, tmp_path):
        from repro.storage.sharding import ShardedSource

        prefix, payloads = self._write(tmp_path)
        src = ShardedSource(prefix, 4)
        assert len(src) == len(payloads)
        got = sorted(src.read(i) for i in range(len(src)))
        assert got == sorted(payloads)

    def test_worker_slices_are_disjoint_and_complete(self, tmp_path):
        from repro.storage.sharding import ShardedSource

        prefix, payloads = self._write(tmp_path, n_samples=12, n_shards=6)
        seen = []
        for worker in range(3):
            src = ShardedSource(prefix, 6, worker=worker, num_workers=3)
            seen.extend(src.read(i) for i in range(len(src)))
        assert sorted(seen) == sorted(payloads)

    def test_source_feeds_data_loader(self, tmp_path):
        import numpy as np

        from repro.core.plugins import CosmoflowLutPlugin
        from repro.datasets import cosmoflow
        from repro.pipeline import DataLoader
        from repro.storage.sharding import ShardedSource, ShardedWriter

        cfg = cosmoflow.CosmoflowConfig(grid=8, n_particles=2000)
        ds = cosmoflow.generate_dataset(6, cfg, seed=1)
        plugin = CosmoflowLutPlugin("cpu")
        prefix = tmp_path / "cosmo"
        with ShardedWriter(prefix, 3) as w:
            for s in ds:
                w.write(plugin.encode(s.data, s.label))
        loader = DataLoader(ShardedSource(prefix, 3), plugin, batch_size=3,
                            seed=0)
        batches = list(loader.batches(0))
        assert sum(b.shape[0] for b, _ in batches) == 6
        assert batches[0][0].dtype == np.float16

    def test_validation(self, tmp_path):
        from repro.storage.sharding import ShardedSource, ShardedWriter, shard_name

        with pytest.raises(ValueError):
            ShardedWriter(tmp_path / "x", 0)
        with pytest.raises(ValueError):
            shard_name("p", 4, 4)
        self._write(tmp_path, n_shards=2)
        with pytest.raises(ValueError):
            ShardedSource(tmp_path / "data", 2, worker=2, num_workers=2)

class TestSampleCacheHardening:
    def test_oversized_put_keeps_stats_clean(self):
        cache = SampleCache(10)
        cache.put("a", b"1234")
        cache.get("a")
        hits, misses, evictions = (
            cache.stats.hits, cache.stats.misses, cache.stats.evictions,
        )
        assert not cache.put("big", b"x" * 11)
        assert cache.stats.rejected_oversize == 1
        assert cache.stats.rejected == 1  # backwards-compatible alias
        # rejection is neither a hit, a miss, nor an eviction
        assert (cache.stats.hits, cache.stats.misses,
                cache.stats.evictions) == (hits, misses, evictions)
        assert cache.used_bytes == 4 and len(cache) == 1

    def test_every_get_is_counted(self):
        cache = SampleCache(100)
        cache.put("a", b"1234")
        for key in ("a", "a", "b", "c", "a"):
            cache.get(key)
        assert cache.stats.gets == 5
        assert cache.stats.hits + cache.stats.misses == cache.stats.gets
        assert (cache.stats.hits, cache.stats.misses) == (3, 2)

    def test_oversized_put_invalidates_stale_entry(self):
        cache = SampleCache(10)
        cache.put("a", b"old-value")
        # the caller holds a newer value too big to store: the stale copy
        # must not keep serving
        assert not cache.put("a", b"x" * 11)
        assert "a" not in cache
        assert cache.used_bytes == 0

    def test_invalidate(self):
        cache = SampleCache(100)
        cache.put("a", b"1234")
        assert cache.invalidate("a")
        assert not cache.invalidate("a")  # already gone
        assert "a" not in cache and cache.used_bytes == 0

    def test_eviction_still_consistent_after_rejections(self):
        cache = SampleCache(10)
        for i in range(5):
            cache.put(i, b"xxxxx")  # two fit
            cache.put("big", b"y" * 11)  # always rejected
        assert cache.used_bytes <= 10
        assert cache.used_bytes == sum(
            len(cache._entries[k]) for k in cache._entries
        )


class TestStagingVerification:
    def _tiers(self, tmp_path):
        pfs = Tier(TierSpec("pfs", 1.0, 1.0, 0.0), tmp_path / "pfs")
        nvme = Tier(TierSpec("nvme", 5.0, 2.0, 0.0), tmp_path / "nvme")
        return pfs, nvme

    def _blob(self, seed=0):
        import numpy as np

        from repro.core.encoding import container

        rng = np.random.default_rng(seed)
        return container.pack_raw_sample(
            rng.normal(size=(4, 4)).astype(np.float32),
            np.arange(3, dtype=np.int64),
        )

    def test_verify_clean_copy(self, tmp_path):
        pfs, nvme = self._tiers(tmp_path)
        names = [f"s{i}" for i in range(3)]
        for i, n in enumerate(names):
            pfs.write(n, self._blob(i))
        report = stage_dataset(pfs, nvme, names, verify=True)
        assert report.n_verified == 3
        assert report.n_restaged == 0

    def test_restages_only_failed_files(self, tmp_path):
        from repro.storage.filesystem import Tier as _Tier

        pfs, nvme = self._tiers(tmp_path)
        names = [f"s{i}" for i in range(4)]
        for i, n in enumerate(names):
            pfs.write(n, self._blob(i))

        class FlakyFirstWrite:
            """Corrupts the FIRST write of selected names, clean after."""

            def __init__(self, inner: _Tier, bad_names):
                self.inner = inner
                self.bad = set(bad_names)
                self.writes = {}

            def __getattr__(self, attr):
                return getattr(self.inner, attr)

            def read(self, name):
                return self.inner.read(name)

            def write(self, name, data):
                first = name not in self.writes
                self.writes[name] = self.writes.get(name, 0) + 1
                if first and name in self.bad:
                    buf = bytearray(data)
                    buf[-1] ^= 0xFF  # damage the (checksummed) label tail
                    data = bytes(buf)
                return self.inner.write(name, data)

        flaky = FlakyFirstWrite(nvme, {"s1", "s3"})
        report = stage_dataset(pfs, flaky, names, verify=True)
        assert report.n_restaged == 2  # exactly the two damaged landings
        assert flaky.writes == {"s0": 1, "s1": 2, "s2": 1, "s3": 2}
        for i, n in enumerate(names):
            assert nvme.read(n) == self._blob(i)

    def test_permanent_failure_raises_after_attempts(self, tmp_path):
        from repro.core.encoding.container import CorruptSampleError
        from repro.robust import FaultPlan, FaultyTier

        pfs, nvme = self._tiers(tmp_path)
        pfs.write("s0", self._blob())
        always_bad = FaultyTier(
            nvme, FaultPlan(corrupt_ids=frozenset({"s0"})), on="write"
        )
        with pytest.raises(CorruptSampleError):
            stage_dataset(pfs, always_bad, ["s0"], verify=True,
                          max_attempts=3)

    def test_verify_charges_extra_modeled_time(self, tmp_path):
        pfs = Tier(TierSpec("pfs", 1.0, 1.0, 0.01), tmp_path / "pfs")
        nvme = Tier(TierSpec("nvme", 5.0, 2.0, 0.0001), tmp_path / "nvme")
        pfs.write("s0", self._blob())
        plain = stage_dataset(pfs, nvme, ["s0"])
        checked = stage_dataset(pfs, nvme, ["s0"], verify=True)
        assert checked.modeled_seconds > plain.modeled_seconds


class TestSampleCacheConcurrency:
    """The cache is shared by every server connection handler: hammer it
    from many threads and check the accounting invariants survive."""

    def test_concurrent_get_put_evict_stress(self):
        import threading

        capacity = 2_000
        cache = SampleCache(capacity)
        blobs = {k: bytes([k]) * (20 + 13 * k % 90) for k in range(40)}
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(400):
                    k = int(rng.integers(0, 40))
                    op = rng.random()
                    if op < 0.45:
                        got = cache.get(k)
                        assert got is None or got == blobs[k]
                    elif op < 0.85:
                        cache.put(k, blobs[k])
                    elif op < 0.95:
                        cache.invalidate(k)
                    else:
                        k in cache  # noqa: B015 - exercising __contains__
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # invariants after the dust settles
        assert 0 <= cache.used_bytes <= capacity
        assert cache.used_bytes == sum(
            len(blobs[k]) for k in range(40) if k in cache
        )
        stats = cache.stats
        assert stats.gets > 0
        # no lookup lost or double-counted under contention
        assert stats.hits + stats.misses == stats.gets
        assert stats.evicted_bytes >= 0

    def test_concurrent_clear_is_safe(self):
        import threading

        cache = SampleCache(10_000)
        stop = threading.Event()
        errors = []

        def putter():
            i = 0
            try:
                while not stop.is_set():
                    cache.put(i % 50, b"x" * 50)
                    cache.get((i + 7) % 50)
                    i += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=putter) for _ in range(4)]
        for t in threads:
            t.start()
        for _ in range(50):
            cache.clear()
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.used_bytes <= 10_000
