"""Equivalence tests: the production (vectorized) encoder against the
line-at-a-time reference encoder, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.conformance import encode_delta_reference
from repro.core.encoding.delta import (
    DeltaCodecConfig,
    decode_images,
    encode_image,
)
from repro.core.plugins.deepcam import _normalize, channel_stats
from repro.datasets import deepcam


def assert_identical(img, cfg=None):
    ref = encode_delta_reference(img, cfg)
    fast = encode_image(img, cfg)
    assert np.array_equal(fast.line_modes, ref.line_modes)
    assert np.array_equal(fast.line_offsets, ref.line_offsets)
    assert fast.payload == ref.payload


class TestEquivalence:
    def test_smooth_image(self):
        rng = np.random.default_rng(0)
        img = np.cumsum(rng.normal(0, 0.01, (16, 200)), axis=1).astype(
            np.float32
        ) + 1.0
        assert_identical(img)

    def test_synthetic_deepcam_channels(self):
        cfg = deepcam.DeepcamConfig(height=32, width=48, n_channels=8)
        s = deepcam.generate_sample(cfg, seed=3)
        mean, std = channel_stats(s.data)
        norm = _normalize(s.data, mean, std)
        for ch in norm:
            assert_identical(ch)

    def test_constant_and_raw_lines(self):
        rng = np.random.default_rng(1)
        img = np.empty((6, 64), dtype=np.float32)
        img[0] = 5.0  # const
        img[1] = np.cumsum(rng.normal(0, 0.01, 64)) + 1  # delta
        img[2] = (rng.standard_normal(64)
                  * 10.0 ** rng.integers(-6, 6, 64).astype(float))  # raw
        img[3] = 0.0  # const zero
        img[4] = np.linspace(0, 1, 64)  # delta
        img[5] = rng.standard_normal(64)  # mixed
        assert_identical(img)

    def test_nan_inf_values(self):
        rng = np.random.default_rng(2)
        img = np.cumsum(rng.normal(0, 0.01, (4, 80)), axis=1).astype(
            np.float32
        ) + 1.0
        img[0, 10] = np.nan
        img[1, 20] = np.inf
        img[2, 30] = -np.inf
        assert_identical(img)

    def test_width_one_and_two(self):
        assert_identical(np.array([[1.5], [2.5]], dtype=np.float32))
        assert_identical(np.array([[1.5, 1.6], [0.0, 1e-8]],
                                  dtype=np.float32))

    def test_alternate_configs(self):
        rng = np.random.default_rng(4)
        img = np.cumsum(rng.normal(0, 0.05, (8, 100)), axis=1).astype(
            np.float32
        ) + 2.0
        for cfg in (
            DeltaCodecConfig(block_size=16),
            DeltaCodecConfig(mantissa_bits=2),
            DeltaCodecConfig(mantissa_bits=5),
            DeltaCodecConfig(quality_gate=False),
            DeltaCodecConfig(rel_tol=0.005),
            DeltaCodecConfig(max_literal_frac=0.1),
        ):
            assert_identical(img, cfg)

    def test_decodes_correctly(self):
        rng = np.random.default_rng(5)
        img = np.cumsum(rng.normal(0, 0.01, (8, 120)), axis=1).astype(
            np.float32
        ) + 1.0
        fast = encode_image(img)
        out = decode_images([fast])[0].astype(np.float32)
        sig = np.abs(img) > 0.01 * np.abs(img).max()
        rel = np.abs(out - img)[sig] / np.abs(img)[sig]
        assert rel.max() < 0.055

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            encode_image(np.zeros(8, dtype=np.float32))

    @given(
        hnp.arrays(
            np.float32,
            shape=st.tuples(st.integers(1, 5), st.integers(1, 70)),
            elements=st.floats(min_value=-1e4, max_value=1e4,
                               allow_nan=False, width=32),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_property(self, img):
        assert_identical(img)

    @given(
        hnp.arrays(
            np.float32,
            shape=st.tuples(st.integers(1, 3), st.integers(2, 50)),
            elements=st.floats(allow_nan=True, allow_infinity=True,
                               width=32),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_equivalence_property_with_nonfinite(self, img):
        assert_identical(img)
