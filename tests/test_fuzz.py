"""Fuzz tests: corrupted inputs fail loudly, never hang or crash oddly.

Since container v2 every byte after the fixed prefix is covered by a
CRC32 (header CRC in the prefix, per-section CRCs in the header), so any
corruption beyond the prefix must raise :class:`CorruptSampleError` —
silent decode-to-garbage is a bug.  Prefix corruption must still raise a
clean structural error; the only legitimately silent flips are the two
unused flag bytes.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import container
from repro.core.encoding.container import CorruptSampleError
from repro.core.encoding.delta import encode_image
from repro.core.encoding.lut import encode_sample

_EXPECTED = (ValueError, KeyError, zlib.error, struct.error, IndexError,
             TypeError, EOFError, OverflowError)

# v2 prefix: magic(4) version(1) codec(1) flags(2) hdr_len(4) hdr_crc(4)
_PREFIX = 16
#: flips with no observable effect: the two reserved flag bytes
_SILENT_PREFIX_POSITIONS = (6, 7)


def _sample_blob():
    rng = np.random.default_rng(0)
    img = (np.cumsum(rng.normal(0, 0.01, (3, 4, 32)), axis=2) + 1.0).astype(
        np.float32
    )
    chans = [encode_image(c) for c in img]
    return container.pack_delta_sample(chans, np.arange(4, dtype=np.int8))


def _payload_start(blob: bytes) -> int:
    hdr_len = struct.unpack_from("<I", blob, 8)[0]
    return _PREFIX + hdr_len


class TestContainerFuzz:
    @given(st.integers(0, _PREFIX - 1), st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_prefix_corruption_is_loud(self, pos, value):
        blob = bytearray(_sample_blob())
        if blob[pos] == value:
            return
        blob[pos] = value
        try:
            container.unpack_sample(bytes(blob))
        except _EXPECTED:
            return
        # corrupting the reserved flag bytes is legitimately a no-op
        assert pos in _SILENT_PREFIX_POSITIONS

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncation_is_loud(self, data):
        blob = _sample_blob()
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(_EXPECTED):
            container.unpack_sample(blob[:cut])

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_random_bytes_never_crash_oddly(self, junk):
        try:
            container.unpack_sample(junk)
        except _EXPECTED:
            pass

    @given(st.integers(0, 10_000), st.integers(0, 255))
    @settings(max_examples=80, deadline=None)
    def test_header_or_payload_corruption_always_detected(self, pos, value):
        """Any flipped byte beyond the prefix must raise CorruptSampleError
        — the v2 CRCs cover the JSON header and every payload section."""
        blob = bytearray(_sample_blob())
        target = _PREFIX + (pos % (len(blob) - _PREFIX))
        if blob[target] == value:
            return
        blob[target] = value
        with pytest.raises(CorruptSampleError):
            container.unpack_sample(bytes(blob))

    @given(st.integers(0, 10_000), st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_unverified_decode_still_fails_cleanly(self, pos, value):
        """Opting out of verification may decode wrong values but must
        never raise an unexpected exception type or hang."""
        from repro.core.encoding.delta import decode_images

        blob = bytearray(_sample_blob())
        start = _payload_start(blob)
        target = start + (pos % (len(blob) - start))
        blob[target] = value
        try:
            codec, payload, label, _ = container.unpack_sample(
                bytes(blob), verify=False
            )
        except _EXPECTED:
            return
        if codec == "delta":
            for enc in payload:
                try:
                    out = decode_images([enc])
                    assert out.shape == (1, *enc.shape)
                except _EXPECTED:
                    return


class TestLutContainerFuzz:
    @given(st.integers(0, 255), st.integers(0, 5_000))
    @settings(max_examples=50, deadline=None)
    def test_lut_payload_corruption_always_detected(self, value, pos):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 40, (4, 6, 6, 6)).astype(np.int16)
        blob = bytearray(
            container.pack_lut_sample(encode_sample(data), np.zeros(4))
        )
        target = _PREFIX + (pos % (len(blob) - _PREFIX))
        old = blob[target]
        blob[target] = value
        if old == value:
            return
        with pytest.raises(CorruptSampleError):
            container.unpack_sample(bytes(blob))


class TestRawContainerFuzz:
    @given(st.integers(0, 255), st.integers(0, 5_000))
    @settings(max_examples=50, deadline=None)
    def test_raw_payload_corruption_always_detected(self, value, pos):
        rng = np.random.default_rng(2)
        blob = bytearray(
            container.pack_raw_sample(
                rng.normal(size=(4, 8)).astype(np.float32),
                np.arange(4, dtype=np.int64),
            )
        )
        target = _PREFIX + (pos % (len(blob) - _PREFIX))
        old = blob[target]
        blob[target] = value
        if old == value:
            return
        with pytest.raises(CorruptSampleError):
            container.unpack_sample(bytes(blob))
