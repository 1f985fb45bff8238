"""Slow tests at the paper's true sample shapes.

Run with ``pytest -m slow``; the regular suite skips them.  These validate
that the code paths scale beyond the reduced test shapes and that the
compression claims hold where the paper measured them.
"""

import zlib

import numpy as np
import pytest

from repro.core.encoding import delta, lut
from repro.core.encoding.analysis import analyze_cosmoflow_sample
from repro.core.plugins.deepcam import _normalize, channel_stats
from repro.datasets import cosmoflow, deepcam

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def paper_cosmo():
    cfg = cosmoflow.CosmoflowConfig(
        grid=128, n_particles=2_000_000, n_clusters=48
    )
    return cosmoflow.generate_sample(cfg, seed=0)


class TestCosmoflowPaperScale:
    def test_lut_ratio_matches_paper(self, paper_cosmo):
        enc = lut.encode_sample(paper_cosmo.data)
        ratio = paper_cosmo.data.nbytes / enc.nbytes
        assert 3.3 < ratio < 4.7  # paper: "roughly 4x"

    def test_gzip_ratio_matches_paper(self, paper_cosmo):
        gz = len(zlib.compress(paper_cosmo.data.tobytes(), 6))
        ratio = paper_cosmo.data.nbytes / gz
        assert 4.0 < ratio < 7.0  # paper: "5x"

    def test_lossless_roundtrip(self, paper_cosmo):
        enc = lut.encode_sample(paper_cosmo.data)
        assert np.array_equal(lut.decode_sample(enc), paper_cosmo.data)

    def test_fig5_statistics_at_scale(self, paper_cosmo):
        st = analyze_cosmoflow_sample(paper_cosmo.data)
        assert st.keys_fit_16bit  # tens of thousands of groups max
        assert st.n_unique_groups < 0.01 * st.n_possible_permutations
        assert st.powerlaw_slope < -1.0

    def test_fused_log_at_scale(self, paper_cosmo):
        enc = lut.encode_sample(paper_cosmo.data)
        fused = lut.apply_to_tables(
            enc, lambda v: np.log1p(v.astype(np.float32)),
            out_dtype=np.float16,
        )
        got = lut.decode_sample(fused, dtype=np.float16)
        want = np.log1p(paper_cosmo.data.astype(np.float32)).astype(
            np.float16
        )
        assert np.array_equal(got, want)


class TestDeepcamPaperScale:
    @pytest.fixture(scope="class")
    def paper_channel(self):
        # paper shape with smoothing scaled to the resolution (the default
        # sigma is tuned for the reduced test shapes)
        cfg = deepcam.DeepcamConfig(
            height=768, width=1152, n_channels=4, smooth_x=40.0,
            smooth_y=8.0,
        )
        s = deepcam.generate_sample(cfg, seed=1)
        mean, std = channel_stats(s.data)
        return _normalize(s.data, mean, std)[0]

    def test_roundtrip_and_error_bound(self, paper_channel):
        enc = delta.encode_image(paper_channel)
        out = delta.decode_images([enc])[0].astype(np.float32)
        scale = np.abs(paper_channel).max()
        sig = np.abs(paper_channel) > 0.01 * scale
        rel = np.abs(out - paper_channel)[sig] / np.abs(paper_channel)[sig]
        assert rel.max() <= 0.055

    def test_compression_at_scale(self, paper_channel):
        enc = delta.encode_image(paper_channel)
        assert paper_channel.nbytes / enc.nbytes > 1.8

    def test_line_independence_at_scale(self, paper_channel):
        """Channels decode alike alone and within a 4-channel sample."""
        encs = [delta.encode_image(ch) for ch in
                (paper_channel, paper_channel[::-1], -paper_channel,
                 paper_channel[:, ::-1])]
        full = delta.decode_images(encs)
        for c, enc in enumerate(encs):
            assert np.array_equal(delta.decode_images([enc])[0], full[c])

    def test_fast_encoder_identical_at_scale(self, paper_channel):
        from repro.conformance import encode_delta_reference

        ref = encode_delta_reference(paper_channel)
        fast = delta.encode_image(paper_channel)
        assert fast.payload == ref.payload
        assert np.array_equal(fast.line_modes, ref.line_modes)

    def test_full_16_channel_plugin_roundtrip(self):
        """The paper's complete sample shape through the GPU plugin."""
        from repro.accel import SimulatedGpu, V100
        from repro.core.plugins import DeepcamDeltaPlugin

        cfg = deepcam.DeepcamConfig(
            height=768, width=1152, n_channels=16, smooth_x=40.0,
            smooth_y=8.0,
        )
        s = deepcam.generate_sample(cfg, seed=2)
        plugin = DeepcamDeltaPlugin("gpu")
        blob = plugin.encode(s.data, s.label)
        assert len(blob) < s.data.nbytes  # compresses the 56.6 MB sample
        device = SimulatedGpu(spec=V100)
        tensor, label = plugin.decode(blob, device)
        assert tensor.shape == (16, 768, 1152)
        assert tensor.dtype == np.float16
        assert np.array_equal(label, s.label)
        # the warp model gives the optimistic analytic decode bound (tens
        # of microseconds); the DES uses the calibrated per-element cost
        # that matches the paper's ~4% overhead instead
        assert 1e-5 < device.busy_seconds < 0.1


class TestPaperProtocol:
    def test_fig7_sixteen_repetitions(self):
        """The paper's full MLPerf protocol: 16 repetitions per variant."""
        from repro.experiments import fig7

        res = fig7.run(repetitions=16, n_samples=8, epochs=3, grid=8,
                       base_filters=2, verbose=False)
        ratio = res.findings["decoded/base final loss ratio"]
        assert 0.7 < ratio < 1.3  # convergence preserved across 16 runs
        # variability is comparable between sample formats
        assert res.findings["final std decoded"] < (
            3 * res.findings["final std base"] + 1e-3
        )
