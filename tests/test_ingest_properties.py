"""Property tests for the ingest commit protocol and snapshot manifests.

Three properties hold for *arbitrary* payload sequences, publish points
and crash positions:

* **never torn** — any interleaving of appends, publishes and live
  reads only ever exposes fully committed records, in append order;
* **replay identity** — every published manifest replays byte-identical
  prefixes forever, no matter how far ingestion appends afterwards;
* **crash safety** — cutting or corrupting the shard file at *any* byte
  position, recovery preserves exactly the committed records whose
  frames precede the damage, bit for bit.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ingest import (
    AppendShard,
    IngestWriter,
    LiveIngestSource,
    ManifestSource,
    recover_shard,
)
from repro.ingest.shards import RECORD_OVERHEAD, scan_shard
from repro.pipeline.sources import read_batch

payloads_st = st.lists(
    st.binary(min_size=0, max_size=60), min_size=1, max_size=12
)
# bool per payload: publish after this append?
publish_points_st = st.lists(st.booleans(), min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(
    payloads=payloads_st,
    publishes=publish_points_st,
    shard_max=st.sampled_from([64, 100_000]),
)
def test_interleaved_append_publish_read_never_torn(
    payloads, publishes, shard_max
):
    with tempfile.TemporaryDirectory() as tmp:
        writer = IngestWriter(
            Path(tmp), fingerprint={}, shard_max_bytes=shard_max, fsync=False
        )
        live = LiveIngestSource(tmp)
        manifests = []
        for i, payload in enumerate(payloads):
            writer.append(payload)
            if publishes[i % len(publishes)]:
                manifests.append(writer.publish())
            writer.flush()
            # the live view exposes exactly the committed prefix, and
            # every byte it returns is what was appended at that index
            n = live.refresh()
            assert n == i + 1
            assert live.read(i) == payload
        writer.publish()
        writer.close()
        live.refresh()
        assert [live.read(i) for i in range(len(payloads))] == payloads
        for m in manifests:
            assert m.n_samples <= len(payloads)
        live.close()


@settings(max_examples=30, deadline=None)
@given(
    payloads=payloads_st,
    publishes=publish_points_st,
    shard_max=st.sampled_from([64, 100_000]),
)
def test_manifest_replay_is_byte_identical(payloads, publishes, shard_max):
    with tempfile.TemporaryDirectory() as tmp:
        writer = IngestWriter(
            Path(tmp), fingerprint={}, shard_max_bytes=shard_max, fsync=False
        )
        published = []  # (manifest, prefix frozen at publish time)
        for i, payload in enumerate(payloads):
            writer.append(payload)
            if publishes[i % len(publishes)]:
                published.append((writer.publish(), payloads[: i + 1]))
        published.append((writer.publish(), list(payloads)))
        writer.close()
        for manifest, frozen in published:
            assert manifest.n_samples == len(frozen)
            with ManifestSource(tmp, manifest) as src:
                assert len(src) == len(frozen)
                assert read_batch(src, range(len(frozen))) == frozen
        # ids are unique per distinct state and chain by parent
        distinct = {m.manifest_id: m for m, _ in published}
        chain = sorted(distinct.values(), key=lambda m: m.seq)
        for prev, nxt in zip(chain, chain[1:]):
            assert nxt.parent == prev.manifest_id


@settings(max_examples=40, deadline=None)
@given(payloads=payloads_st, data=st.data())
def test_crash_cut_preserves_committed_prefix(payloads, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.rec"
        ends = []  # frame end offset of each record
        with AppendShard(path) as shard:
            for payload in payloads:
                shard.append(payload)
                ends.append(shard.nbytes)
        size = path.stat().st_size
        assert size == ends[-1]
        cut = data.draw(st.integers(min_value=0, max_value=size), label="cut")
        with open(path, "r+b") as fh:
            fh.truncate(cut)
        report = recover_shard(path)
        expect = sum(1 for e in ends if e <= cut)
        assert report.n_records == expect
        assert report.valid_end == (ends[expect - 1] if expect else 0)
        scan = scan_shard(path)
        assert [
            path.read_bytes()[o:o + n] for o, n in scan.entries
        ] == payloads[:expect]


@settings(max_examples=40, deadline=None)
@given(payloads=payloads_st, data=st.data())
def test_corrupt_byte_never_yields_wrong_bytes(payloads, data):
    """Flipping any byte of the file: recovery keeps exactly the records
    before the damaged frame, and their payloads are untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.rec"
        starts, ends = [], []
        offset = 0
        with AppendShard(path) as shard:
            for payload in payloads:
                starts.append(offset)
                shard.append(payload)
                offset = shard.nbytes
                ends.append(offset)
        size = path.stat().st_size
        pos = data.draw(
            st.integers(min_value=0, max_value=size - 1), label="pos"
        )
        raw = bytearray(path.read_bytes())
        raw[pos] ^= 0xA5
        path.write_bytes(raw)
        report = recover_shard(path)
        # the record containing pos is damaged; everything before it is
        # committed.  (A flipped length field can only shrink coverage
        # further, never extend it past a valid CRC.)
        damaged = next(
            i for i, (s, e) in enumerate(zip(starts, ends)) if s <= pos < e
        )
        assert report.n_records <= damaged
        scan = scan_shard(path)
        kept = [path.read_bytes()[o:o + n] for o, n in scan.entries]
        assert kept == payloads[: scan.n_records]
        assert RECORD_OVERHEAD * len(payloads) + sum(
            len(p) for p in payloads
        ) == size
