"""Tests for the DeepCAM differential line codec (behaviour of the one
production encoder/decoder pair; equivalence to the reference coders is
pinned in ``test_delta_fast``, ``test_delta_decode_fast`` and
``test_codec_contract``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.encoding.delta import (
    LINE_CONST,
    LINE_DELTA,
    LINE_RAW,
    DeltaCodecConfig,
    DeltaEncodedImage,
    decode_images,
    encode_image,
)


def decode_image(enc, out=None):
    """One channel decoded on its own."""
    return decode_images([enc], None if out is None else out[None])[0]


def decode_line(enc, i):
    """Line ``i`` decoded on its own: a one-line image of its record."""
    line = DeltaEncodedImage(
        shape=(1, enc.shape[1]),
        line_modes=enc.line_modes[i:i + 1],
        line_offsets=np.array([0, len(enc.line_payload(i))], np.uint64),
        payload=enc.line_payload(i),
        config=enc.config,
    )
    return decode_images([line])[0, 0]


def _smooth_image(h=16, w=128, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.normal(0, 0.01 * scale, size=(h, w)), axis=1)
    return (x + scale).astype(np.float32)


class TestLineModes:
    def test_constant_line(self):
        img = np.full((4, 64), 3.25, dtype=np.float32)
        enc = encode_image(img)
        assert all(m == LINE_CONST for m in enc.line_modes)
        out = decode_image(enc)
        assert np.all(out == np.float16(3.25))

    def test_constant_line_is_tiny(self):
        img = np.full((1, 1024), -7.5, dtype=np.float32)
        enc = encode_image(img)
        assert enc.line_offsets[-1] == 4  # one FP32 pivot

    def test_smooth_line_is_delta(self):
        img = _smooth_image()
        enc = encode_image(img)
        assert np.count_nonzero(enc.line_modes == LINE_DELTA) == img.shape[0]

    def test_abrupt_line_is_raw(self):
        rng = np.random.default_rng(3)
        # white noise spanning many binades forces literal fallback on most
        # segments -> RAW classification
        img = (rng.standard_normal((4, 128)) * 10.0 ** rng.integers(
            -6, 6, size=(4, 128)).astype(np.float64)).astype(np.float32)
        enc = encode_image(img)
        assert np.count_nonzero(enc.line_modes == LINE_RAW) >= 3

    def test_raw_lines_keep_full_precision(self):
        rng = np.random.default_rng(4)
        img = (rng.standard_normal((2, 64)) * 10.0 ** rng.integers(
            -6, 6, size=(2, 64)).astype(np.float64)).astype(np.float32)
        enc = encode_image(img)
        out = decode_image(enc)
        raw_rows = enc.line_modes == LINE_RAW
        with np.errstate(over="ignore"):  # beyond FP16's range: ±inf
            want = img[raw_rows].astype(np.float16)
        assert np.array_equal(out[raw_rows], want)

    def test_width_one_image(self):
        img = np.array([[1.5], [2.5]], dtype=np.float32)
        enc = encode_image(img)
        assert all(m == LINE_CONST for m in enc.line_modes)
        assert np.array_equal(decode_image(enc).ravel(), np.float16([1.5, 2.5]))


class TestAccuracy:
    def test_quality_gate_bounds_error(self):
        cfg = DeltaCodecConfig(rel_tol=0.05, rel_floor=0.01)
        img = _smooth_image(h=8, w=256, seed=1)
        enc = encode_image(img, cfg)
        out = decode_image(enc).astype(np.float32)
        scale = np.abs(img).max()
        significant = np.abs(img) > 0.01 * scale
        rel = np.abs(out - img)[significant] / np.abs(img)[significant]
        # FP16 output adds <=0.05% on top of the 5% encode gate
        assert rel.max() <= 0.055

    def test_tighter_tolerance_gives_lower_error(self):
        img = _smooth_image(h=8, w=256, seed=2)
        errs = []
        for tol in (0.10, 0.01):
            enc = encode_image(img, DeltaCodecConfig(rel_tol=tol))
            out = decode_image(enc).astype(np.float32)
            errs.append(float(np.abs(out - img).max()))
        assert errs[1] <= errs[0]

    def test_tighter_tolerance_costs_space(self):
        img = _smooth_image(h=8, w=256, seed=2)
        loose = encode_image(img, DeltaCodecConfig(rel_tol=0.10))
        tight = encode_image(img, DeltaCodecConfig(rel_tol=0.005))
        assert tight.nbytes >= loose.nbytes

    def test_compresses_smooth_data(self):
        img = _smooth_image(h=32, w=512)
        enc = encode_image(img)
        assert enc.nbytes < img.nbytes / 2  # ~1 byte per 4-byte value + meta

    def test_nan_survives_via_fallback(self):
        img = _smooth_image(h=2, w=64)
        img[0, 10] = np.nan
        enc = encode_image(img)
        out = decode_image(enc)
        assert np.isnan(out[0, 10])
        assert not np.isnan(out[1]).any()


class TestIndependentLineDecode:
    def test_single_line_matches_full_decode(self):
        img = _smooth_image(h=12, w=200, seed=5)
        img[3] = 42.0  # a const line
        enc = encode_image(img)
        full = decode_image(enc)
        for i in range(img.shape[0]):
            assert np.array_equal(decode_line(enc, i), full[i])

    def test_line_decode_out_of_range(self):
        """A line the table has no entry for raises; it is never left
        undecoded."""
        enc = encode_image(_smooth_image(h=2, w=16))
        enc.shape = (3, 16)
        with pytest.raises(ValueError, match="line table"):
            decode_images([enc])

    def test_offsets_are_monotone(self):
        enc = encode_image(_smooth_image(h=10, w=100, seed=6))
        offs = enc.line_offsets.astype(np.int64)
        assert np.all(np.diff(offs) > 0)
        assert offs[-1] == len(enc.payload)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_size": 0},
            {"rel_tol": 0.0},
            {"rel_tol": 1.0},
            {"rel_floor": -0.1},
            {"max_literal_frac": 0.0},
            {"max_literal_frac": 1.5},
        ],
    )
    def test_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            DeltaCodecConfig(**kwargs)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            encode_image(np.zeros(8, dtype=np.float32))

    def test_decode_out_buffer_validation(self):
        enc = encode_image(_smooth_image(h=2, w=16))
        with pytest.raises(ValueError):
            decode_image(enc, out=np.empty((2, 16), dtype=np.float32))
        with pytest.raises(ValueError):
            decode_image(enc, out=np.empty((3, 16), dtype=np.float16))

    def test_block_size_variants_roundtrip(self):
        img = _smooth_image(h=4, w=130, seed=7)
        for bs in (1, 7, 64, 200):
            enc = encode_image(img, DeltaCodecConfig(block_size=bs))
            out = decode_image(enc).astype(np.float32)
            scale = np.abs(img).max()
            sig = np.abs(img) > 0.01 * scale
            rel = np.abs(out - img)[sig] / np.abs(img)[sig]
            assert rel.max() <= 0.055, f"block_size={bs}"


class TestProperties:
    @given(
        hnp.arrays(
            np.float32,
            shape=st.tuples(st.integers(1, 6), st.integers(1, 80)),
            elements=st.floats(
                min_value=-1e4, max_value=1e4, allow_nan=False,
                width=32,
            ),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_never_exceeds_gate(self, img):
        cfg = DeltaCodecConfig()
        enc = encode_image(img, cfg)
        out = decode_image(enc).astype(np.float32)
        assert out.shape == img.shape
        scale = float(np.abs(img).max()) if img.size else 0.0
        if scale == 0.0:
            assert np.all(out == 0.0)
            return
        if scale < 1e-4:
            # below FP16's usable range the output format itself cannot
            # honour any relative-error bound (the paper's decoder emits
            # FP16 too); real samples are normalized well above this
            return
        sig = np.abs(img) > cfg.rel_floor * scale
        if sig.any():
            rel = np.abs(out - img)[sig] / np.abs(img)[sig]
            # encode gate 5% + FP16 cast 0.05%
            assert rel.max() <= cfg.rel_tol + 1e-3

    @given(
        hnp.arrays(
            np.float32,
            shape=st.tuples(st.integers(1, 4), st.integers(2, 60)),
            elements=st.floats(
                min_value=-100, max_value=100, allow_nan=False, width=32
            ),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_line_independence_property(self, img):
        enc = encode_image(img)
        full = decode_image(enc)
        i = img.shape[0] - 1
        assert np.array_equal(decode_line(enc, i), full[i])
