"""Equivalence tests: the production (vectorized) decoder against the
value-at-a-time reference decoder, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.conformance import decode_delta_reference, encode_delta_reference
from repro.core.encoding.delta import (
    DeltaCodecConfig,
    decode_images,
    encode_image,
)
from repro.core.plugins.deepcam import _normalize, channel_stats
from repro.datasets import deepcam


def assert_decodes_identically(img, cfg=None):
    enc = encode_image(img, cfg)
    ref = decode_delta_reference(enc)
    fast = decode_images([enc])[0]
    # bit-identical including NaN positions
    assert np.array_equal(
        ref.view(np.uint16), fast.view(np.uint16)
    )


class TestEquivalence:
    def test_smooth_image(self):
        rng = np.random.default_rng(0)
        img = (np.cumsum(rng.normal(0, 0.01, (16, 200)), axis=1) + 1.0
               ).astype(np.float32)
        assert_decodes_identically(img)

    def test_mixed_modes(self):
        rng = np.random.default_rng(1)
        img = np.empty((6, 96), dtype=np.float32)
        img[0] = 5.0
        img[1] = np.cumsum(rng.normal(0, 0.01, 96)) + 1
        img[2] = (rng.standard_normal(96)
                  * 10.0 ** rng.integers(-6, 6, 96).astype(float))
        img[3] = 0.0
        img[4] = np.linspace(-1, 1, 96)
        img[5] = rng.standard_normal(96)
        assert_decodes_identically(img)

    def test_deepcam_channels(self):
        cfg = deepcam.DeepcamConfig(height=32, width=48, n_channels=8)
        s = deepcam.generate_sample(cfg, seed=7)
        mean, std = channel_stats(s.data)
        for ch in _normalize(s.data, mean, std):
            assert_decodes_identically(ch)

    def test_nonfinite_values(self):
        rng = np.random.default_rng(2)
        img = (np.cumsum(rng.normal(0, 0.01, (4, 80)), axis=1) + 1.0
               ).astype(np.float32)
        img[0, 10] = np.nan
        img[1, 20] = np.inf
        assert_decodes_identically(img)

    def test_width_edge_cases(self):
        assert_decodes_identically(np.array([[1.5], [2.5]], np.float32))
        assert_decodes_identically(
            np.array([[1.5, 1.6], [0.0, 1e-8]], np.float32)
        )

    def test_alternate_configs(self):
        rng = np.random.default_rng(3)
        img = (np.cumsum(rng.normal(0, 0.05, (8, 100)), axis=1) + 2.0
               ).astype(np.float32)
        for cfg in (
            DeltaCodecConfig(block_size=16),
            DeltaCodecConfig(mantissa_bits=2),
            DeltaCodecConfig(quality_gate=False),
            DeltaCodecConfig(max_literal_frac=0.1),
        ):
            assert_decodes_identically(img, cfg)

    def test_works_on_fast_encoder_output(self):
        """Also bit-identical on the reference encoder's streams."""
        rng = np.random.default_rng(4)
        img = (np.cumsum(rng.normal(0, 0.01, (10, 150)), axis=1) + 1.0
               ).astype(np.float32)
        enc = encode_delta_reference(img)
        assert np.array_equal(
            decode_delta_reference(enc).view(np.uint16),
            decode_images([enc])[0].view(np.uint16),
        )

    def test_out_buffer(self):
        rng = np.random.default_rng(5)
        img = (np.cumsum(rng.normal(0, 0.01, (4, 64)), axis=1) + 1.0
               ).astype(np.float32)
        enc = encode_image(img)
        buf = np.empty((1, 4, 64), dtype=np.float16)
        res = decode_images([enc], out=buf)
        assert res is buf
        with pytest.raises(ValueError):
            decode_images([enc], out=np.empty((1, 4, 64), np.float32))

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
        assert_decodes_identically(img)

    @given(
        hnp.arrays(
            np.float32,
            shape=st.tuples(st.integers(1, 3), st.integers(2, 50)),
            elements=st.floats(allow_nan=True, allow_infinity=True,
                               width=32),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_equivalence_property_nonfinite(self, img):
        assert_decodes_identically(img)
