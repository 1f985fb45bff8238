"""Tests for the encoded-sample container format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import container
from repro.core.encoding.delta import DeltaCodecConfig, decode_images, encode_image
from repro.core.encoding.lut import (
    LutCodecConfig,
    apply_to_tables,
    decode_sample,
    encode_sample,
)


def _delta_channels(c=3, h=8, w=32, seed=0):
    rng = np.random.default_rng(seed)
    img = np.cumsum(rng.normal(0, 0.01, size=(c, h, w)), axis=2).astype(
        np.float32
    ) + 1.0
    return img, [encode_image(ch) for ch in img]


class TestRawContainer:
    def test_roundtrip(self):
        data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        label = np.array([1, 2, 3], dtype=np.int64)
        codec, out, lab, extra = container.unpack_sample(
            container.pack_raw_sample(data, label)
        )
        assert codec == "raw"
        assert np.array_equal(out, data) and out.dtype == data.dtype
        assert np.array_equal(lab, label) and lab.dtype == label.dtype
        assert extra == {}

    def test_extra_metadata(self):
        blob = container.pack_raw_sample(
            np.zeros(3, np.float32), np.zeros(1), extra={"mean": [1.0, 2.0]}
        )
        _, _, _, extra = container.unpack_sample(blob)
        assert extra == {"mean": [1.0, 2.0]}

    def test_peek_codec(self):
        blob = container.pack_raw_sample(np.zeros(3, np.float32), np.zeros(1))
        assert container.peek_codec(blob) == "raw"


class TestDeltaContainer:
    def test_roundtrip_decodes_identically(self):
        _, channels = _delta_channels()
        label = np.ones((8, 32), dtype=np.int8)
        blob = container.pack_delta_sample(channels, label)
        codec, out_channels, lab, _ = container.unpack_sample(blob)
        assert codec == "delta"
        assert len(out_channels) == len(channels)
        for a, b in zip(channels, out_channels):
            assert np.array_equal(decode_images([a]), decode_images([b]))
        assert np.array_equal(lab, label)

    def test_config_roundtrips(self):
        img = np.cumsum(
            np.random.default_rng(1).normal(0, 0.01, (4, 64)), axis=1
        ).astype(np.float32)
        cfg = DeltaCodecConfig(block_size=16, rel_tol=0.02)
        blob = container.pack_delta_sample(
            [encode_image(img, cfg)], np.zeros(1)
        )
        _, chans, _, _ = container.unpack_sample(blob)
        assert chans[0].config == cfg

    def test_empty_channel_list_rejected(self):
        with pytest.raises(ValueError):
            container.pack_delta_sample([], np.zeros(1))

    def test_mismatched_shapes_rejected(self):
        _, c1 = _delta_channels(c=1, h=8, w=32)
        _, c2 = _delta_channels(c=1, h=8, w=16)
        with pytest.raises(ValueError):
            container.pack_delta_sample([c1[0], c2[0]], np.zeros(1))


class TestLutContainer:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 40, size=(4, 6, 6, 6)).astype(np.int16)
        label = rng.normal(size=4).astype(np.float32)
        blob = container.pack_lut_sample(encode_sample(data), label)
        codec, enc, lab, _ = container.unpack_sample(blob)
        assert codec == "lut"
        assert np.array_equal(decode_sample(enc), data)
        assert np.array_equal(lab, label)

    def test_multi_table_roundtrip(self):
        from repro.core.encoding.lut import LutCodecConfig

        rng = np.random.default_rng(3)
        data = rng.integers(0, 1000, size=(4, 8, 8, 8)).astype(np.int16)
        enc = encode_sample(data, LutCodecConfig(max_groups_per_table=150))
        blob = container.pack_lut_sample(enc, np.zeros(4, np.float32))
        _, enc2, _, _ = container.unpack_sample(blob)
        assert len(enc2.tables) == len(enc.tables)
        assert np.array_equal(decode_sample(enc2), data)

    def test_decoder_reads_read_only_views_of_the_blob(self):
        """The LUT branch hands out views of the blob, not copies, even of
        a writable buffer; a plain and a fused decode leave them read-only
        and unchanged."""
        rng = np.random.default_rng(4)
        data = rng.integers(0, 1000, size=(4, 8, 8, 8)).astype(np.int16)
        enc = encode_sample(data, LutCodecConfig(max_groups_per_table=150))
        blob = bytearray(container.pack_lut_sample(enc, np.zeros(4)))
        _, enc, _, _ = container.unpack_sample(blob)
        parts = [a for t in enc.tables for a in (t.keys, t.values)]
        before = [a.tobytes() for a in parts]
        assert len(enc.tables) > 1
        assert all(np.shares_memory(a, np.frombuffer(blob, np.uint8))
                   for a in parts)
        assert np.array_equal(decode_sample(enc), data)
        fused = apply_to_tables(enc, np.log1p, out_dtype=np.float16)
        assert decode_sample(fused).tobytes() == (
            np.log1p(data).astype(np.float16).tobytes()
        )
        assert not any(a.flags.writeable for a in parts)
        assert [a.tobytes() for a in parts] == before


class TestLabelLosslessness:
    @given(
        st.lists(st.integers(-128, 127), min_size=1, max_size=64)
    )
    @settings(max_examples=40, deadline=None)
    def test_labels_bit_exact(self, values):
        label = np.array(values, dtype=np.int8)
        blob = container.pack_raw_sample(np.zeros(2, np.float32), label)
        _, _, lab, _ = container.unpack_sample(blob)
        assert np.array_equal(lab, label) and lab.dtype == label.dtype

    def test_float_labels_bit_exact(self):
        label = np.array([0.1, -1e-30, 3e30, np.pi], dtype=np.float32)
        blob = container.pack_raw_sample(np.zeros(2, np.float32), label)
        _, _, lab, _ = container.unpack_sample(blob)
        assert np.array_equal(lab, label)


class TestCorruption:
    def test_bad_magic(self):
        blob = container.pack_raw_sample(np.zeros(2, np.float32), np.zeros(1))
        with pytest.raises(ValueError, match="magic"):
            container.unpack_sample(b"XXXX" + blob[4:])

    def test_truncated(self):
        with pytest.raises(ValueError, match="truncated"):
            container.unpack_sample(b"RP")

    def test_bad_version(self):
        blob = bytearray(
            container.pack_raw_sample(np.zeros(2, np.float32), np.zeros(1))
        )
        blob[4] = 99
        with pytest.raises(ValueError, match="version"):
            container.unpack_sample(bytes(blob))


def _lut_blob(seed=2):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 40, size=(4, 6, 6, 6)).astype(np.int16)
    label = rng.normal(size=4).astype(np.float32)
    return container.pack_lut_sample(encode_sample(data), label), data, label


class TestVerifySample:
    def test_all_codecs_verify_clean(self):
        _, channels = _delta_channels()
        blobs = [
            container.pack_raw_sample(np.zeros(3, np.float32), np.zeros(1)),
            container.pack_delta_sample(channels, np.zeros(1)),
            _lut_blob()[0],
        ]
        for blob in blobs:
            assert container.verify_sample(blob) == 2

    def test_corrupt_raises_with_sample_id_and_section(self):
        blob = bytearray(
            container.pack_raw_sample(np.ones(8, np.float32), np.zeros(1))
        )
        blob[-1] ^= 0x01  # damage the label section
        with pytest.raises(container.CorruptSampleError) as ei:
            container.verify_sample(bytes(blob), sample_id="s42")
        assert ei.value.sample_id == "s42"
        assert ei.value.section is not None
        assert "s42" in str(ei.value)

    def test_corrupt_is_a_value_error(self):
        # pre-checksum error handling (except ValueError) keeps working
        assert issubclass(container.CorruptSampleError, ValueError)

    def test_junk_raises_structural_error(self):
        with pytest.raises(ValueError):
            container.verify_sample(b"RPRSjunkjunkjunkjunk")


class TestCorruptionDetectionAllCodecs:
    """Truncated and bit-flipped blobs are detected for RAW/DELTA/LUT —
    never decoded to garbage (satellite task)."""

    def _blobs(self):
        _, channels = _delta_channels()
        raw = container.pack_raw_sample(
            np.arange(24, dtype=np.float32), np.arange(3, dtype=np.int64)
        )
        delta = container.pack_delta_sample(channels, np.zeros(2, np.int8))
        lut = _lut_blob()[0]
        return {"raw": raw, "delta": delta, "lut": lut}

    def test_bitflip_every_codec(self):
        for name, blob in self._blobs().items():
            for frac in (0.3, 0.6, 0.95):
                buf = bytearray(blob)
                pos = 16 + int((len(buf) - 17) * frac)
                buf[pos] ^= 0x10
                with pytest.raises(container.CorruptSampleError):
                    container.unpack_sample(bytes(buf), sample_id=name)

    def test_truncation_every_codec(self):
        for name, blob in self._blobs().items():
            for cut in (len(blob) - 1, len(blob) - 8, len(blob) * 3 // 4):
                with pytest.raises(ValueError):
                    container.unpack_sample(blob[:cut], sample_id=name)

    def test_truncated_payload_names_the_damage(self):
        blob = self._blobs()["delta"]
        with pytest.raises(container.CorruptSampleError) as ei:
            container.verify_sample(blob[: len(blob) - 4], sample_id=9)
        assert ei.value.section == "payload" or ei.value.section.startswith(
            "section"
        )


class TestV1BackwardCompatibility:
    """Containers written before the checksum change must still unpack."""

    def test_raw_v1_roundtrip(self):
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        label = np.array([5, 6], dtype=np.int64)
        blob = container.pack_raw_sample(data, label, version=1)
        assert container.peek_version(blob) == 1
        codec, out, lab, _ = container.unpack_sample(blob)
        assert codec == "raw"
        assert np.array_equal(out, data)
        assert np.array_equal(lab, label)

    def test_delta_v1_roundtrip(self):
        img, channels = _delta_channels()
        blob = container.pack_delta_sample(channels, np.zeros(1), version=1)
        _, out_channels, _, _ = container.unpack_sample(blob)
        for a, b in zip(channels, out_channels):
            assert np.array_equal(decode_images([a]), decode_images([b]))

    def test_lut_v1_roundtrip(self):
        rng = np.random.default_rng(4)
        data = rng.integers(0, 40, size=(4, 6, 6, 6)).astype(np.int16)
        blob = container.pack_lut_sample(
            encode_sample(data), np.zeros(4, np.float32), version=1
        )
        _, enc, _, _ = container.unpack_sample(blob)
        assert np.array_equal(decode_sample(enc), data)

    def test_v1_has_no_checksums_and_verifies_structurally(self):
        blob = container.pack_raw_sample(
            np.zeros(4, np.float32), np.zeros(1), version=1
        )
        assert container.verify_sample(blob) == 1  # no CRCs → structural only

    def test_v1_prefix_is_the_legacy_12_bytes(self):
        import struct as _struct

        blob = container.pack_raw_sample(
            np.zeros(4, np.float32), np.zeros(1), version=1
        )
        magic, version, codec, pad, hdr_len = _struct.unpack_from(
            "<4sBBHI", blob
        )
        assert magic == b"RPRS" and version == 1 and pad == 0
        header = bytes(blob[12 : 12 + hdr_len]).decode()
        assert '"crcs"' not in header

    def test_v2_is_the_default(self):
        blob = container.pack_raw_sample(np.zeros(4, np.float32), np.zeros(1))
        assert container.peek_version(blob) == 2

    def test_unknown_write_version_rejected(self):
        with pytest.raises(ValueError):
            container.pack_raw_sample(
                np.zeros(4, np.float32), np.zeros(1), version=3
            )
