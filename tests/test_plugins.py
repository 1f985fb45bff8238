"""Tests for the DeepCAM and CosmoFlow decoder plugins."""

import numpy as np
import pytest

from repro.accel.device import A100, V100, SimulatedGpu
from repro.core.plugins import (
    CosmoflowBaselinePlugin,
    CosmoflowLutPlugin,
    DeepcamBaselinePlugin,
    DeepcamDeltaPlugin,
    channel_stats,
    log_transform,
)


class TestDeepcamBaseline:
    def test_output_is_normalized_fp32(self, deepcam_sample):
        plugin = DeepcamBaselinePlugin()
        tensor, label = plugin.decode(
            plugin.encode(deepcam_sample.data, deepcam_sample.label)
        )
        assert tensor.dtype == np.float32
        assert tensor.shape == deepcam_sample.data.shape
        means = tensor.reshape(tensor.shape[0], -1).mean(axis=1)
        stds = tensor.reshape(tensor.shape[0], -1).std(axis=1)
        assert np.allclose(means, 0.0, atol=1e-4)
        assert np.allclose(stds, 1.0, atol=1e-3)
        assert np.array_equal(label, deepcam_sample.label)

    def test_gpu_decode_unsupported(self, deepcam_sample):
        """The baseline preprocesses on the CPU only: a device passed in
        is never charged and changes nothing."""
        plugin = DeepcamBaselinePlugin()
        blob = plugin.encode(deepcam_sample.data, deepcam_sample.label)
        dev = SimulatedGpu(spec=V100)
        tensor, _ = plugin.decode(blob, dev)
        assert dev.launches == []
        assert tensor.tobytes() == plugin.decode(blob)[0].tobytes()

    def test_measure_cost(self, deepcam_sample):
        cost = DeepcamBaselinePlugin().measure(
            deepcam_sample.data, deepcam_sample.label
        )
        assert cost.h2d_bytes == deepcam_sample.data.nbytes  # FP32 across
        assert cost.cpu_preprocess_elems == deepcam_sample.data.size
        assert cost.gpu_decode_seconds == 0.0


class TestDeepcamDelta:
    def test_cpu_gpu_decode_identical(self, deepcam_sample):
        gpu_plugin = DeepcamDeltaPlugin("gpu")
        cpu_plugin = DeepcamDeltaPlugin("cpu")
        blob = gpu_plugin.encode(deepcam_sample.data, deepcam_sample.label)
        t_cpu, l_cpu = cpu_plugin.decode(blob)
        t_gpu, l_gpu = gpu_plugin.decode(blob, SimulatedGpu(spec=V100))
        assert t_cpu.dtype == np.float16 and t_gpu.dtype == np.float16
        assert np.array_equal(t_cpu, t_gpu)
        assert np.array_equal(l_cpu, l_gpu)

    def test_decoded_close_to_baseline_normalized(self, deepcam_sample):
        base = DeepcamBaselinePlugin()
        plug = DeepcamDeltaPlugin("cpu")
        truth, _ = base.decode(
            base.encode(deepcam_sample.data, deepcam_sample.label)
        )
        approx, _ = plug.decode(
            plug.encode(deepcam_sample.data, deepcam_sample.label)
        )
        err = np.abs(approx.astype(np.float32) - truth)
        scale = np.abs(truth).max()
        sig = np.abs(truth) > 0.01 * scale
        rel = err[sig] / np.abs(truth)[sig]
        assert rel.max() < 0.06  # the 5% gate + FP16 cast

    def test_encoded_smaller_than_baseline(self, deepcam_sample):
        base_blob = DeepcamBaselinePlugin().encode(
            deepcam_sample.data, deepcam_sample.label
        )
        enc_blob = DeepcamDeltaPlugin("gpu").encode(
            deepcam_sample.data, deepcam_sample.label
        )
        assert len(enc_blob) < len(base_blob)

    def test_gpu_decode_charges_device(self, deepcam_sample):
        plugin = DeepcamDeltaPlugin("gpu")
        blob = plugin.encode(deepcam_sample.data, deepcam_sample.label)
        dev = SimulatedGpu(spec=V100)
        plugin.decode(blob, dev)
        assert dev.busy_seconds > 0
        assert any(k.name == "delta_decode" for k in dev.launches)

    def test_placement_dispatch(self, deepcam_sample):
        plugin = DeepcamDeltaPlugin("cpu")
        blob = plugin.encode(deepcam_sample.data, deepcam_sample.label)
        dev = SimulatedGpu(spec=V100)
        plugin.decode(blob, dev)  # cpu placement ignores the device
        assert dev.busy_seconds == 0

    def test_measure_gpu_vs_cpu_costs(self, deepcam_sample):
        data, label = deepcam_sample.data, deepcam_sample.label
        c_gpu = DeepcamDeltaPlugin("gpu").measure(data, label)
        c_cpu = DeepcamDeltaPlugin("cpu").measure(data, label)
        assert c_gpu.stored_bytes == c_cpu.stored_bytes
        # GPU placement ships the encoded form; CPU placement the FP16 tensor
        assert c_gpu.h2d_bytes == c_gpu.stored_bytes
        assert c_cpu.h2d_bytes == c_cpu.decoded_bytes
        assert c_gpu.cpu_preprocess_elems == 0
        assert c_cpu.cpu_preprocess_elems > 0
        assert c_gpu.gpu_decode_seconds > 0

    def test_invalid_placement(self):
        with pytest.raises(ValueError):
            DeepcamDeltaPlugin("fpga")

    def test_wrong_container_rejected(self, deepcam_sample):
        base_blob = DeepcamBaselinePlugin().encode(
            deepcam_sample.data, deepcam_sample.label
        )
        with pytest.raises(ValueError):
            DeepcamDeltaPlugin("cpu").decode(base_blob)


class TestChannelStats:
    def test_matches_numpy(self, deepcam_sample):
        mean, std = channel_stats(deepcam_sample.data)
        C = deepcam_sample.data.shape[0]
        flat = deepcam_sample.data.reshape(C, -1)
        assert np.allclose(mean, flat.mean(axis=1), rtol=1e-5)
        assert np.allclose(std, flat.std(axis=1), rtol=1e-4)

    def test_constant_channel_unit_std(self):
        data = np.ones((2, 4, 4), dtype=np.float32)
        _, std = channel_stats(data)
        assert np.all(std == 1.0)


class TestCosmoflowBaseline:
    def test_full_volume_log(self, cosmo_sample):
        plugin = CosmoflowBaselinePlugin()
        tensor, label = plugin.decode(
            plugin.encode(cosmo_sample.data, cosmo_sample.label)
        )
        assert tensor.dtype == np.float32
        want = np.log1p(cosmo_sample.data.astype(np.float32))
        assert np.array_equal(tensor, want)
        assert np.array_equal(label, cosmo_sample.label)


class TestCosmoflowLut:
    def test_lossless_to_fp16(self, cosmo_sample):
        plugin = CosmoflowLutPlugin("cpu")
        tensor, _ = plugin.decode(
            plugin.encode(cosmo_sample.data, cosmo_sample.label)
        )
        want = np.log1p(cosmo_sample.data.astype(np.float32)).astype(
            np.float16
        )
        assert np.array_equal(tensor, want)  # "not lossy when casting"

    def test_cpu_gpu_identical(self, cosmo_sample):
        plugin = CosmoflowLutPlugin("gpu")
        blob = plugin.encode(cosmo_sample.data, cosmo_sample.label)
        t_gpu, _ = plugin.decode(blob, SimulatedGpu(spec=A100))
        t_cpu, _ = CosmoflowLutPlugin("cpu").decode(blob)
        assert np.array_equal(t_gpu, t_cpu)

    def test_no_log_variant(self, cosmo_sample):
        plugin = CosmoflowLutPlugin("cpu", apply_log=False)
        tensor, _ = plugin.decode(
            plugin.encode(cosmo_sample.data, cosmo_sample.label)
        )
        assert np.array_equal(
            tensor, cosmo_sample.data.astype(np.float16)
        )

    def test_fused_gpu_kernels_recorded(self, cosmo_sample):
        plugin = CosmoflowLutPlugin("gpu")
        blob = plugin.encode(cosmo_sample.data, cosmo_sample.label)
        dev = SimulatedGpu(spec=V100)
        plugin.decode(blob, dev)
        names = [k.name for k in dev.launches]
        assert "lut_table_preproc" in names  # fused log on the table
        assert "lut_gather" in names

    def test_encoded_smaller(self, cosmo_sample):
        base = CosmoflowBaselinePlugin().encode(
            cosmo_sample.data, cosmo_sample.label
        )
        enc = CosmoflowLutPlugin("gpu").encode(
            cosmo_sample.data, cosmo_sample.label
        )
        assert len(enc) < len(base)

    def test_measure_costs(self, cosmo_sample):
        data, label = cosmo_sample.data, cosmo_sample.label
        c_base = CosmoflowBaselinePlugin().measure(data, label)
        c_gpu = CosmoflowLutPlugin("gpu").measure(data, label)
        c_cpu = CosmoflowLutPlugin("cpu").measure(data, label)
        assert c_gpu.stored_bytes < c_base.stored_bytes
        assert c_gpu.h2d_bytes < c_cpu.h2d_bytes < c_base.h2d_bytes
        assert c_base.cpu_preprocess_elems == data.size
        assert c_cpu.cpu_preprocess_elems < c_base.cpu_preprocess_elems

    def test_log_transform_fp32(self):
        counts = np.array([0, 1, 100], dtype=np.int16)
        out = log_transform(counts)
        assert out.dtype == np.float32
        assert np.allclose(out, np.log1p([0.0, 1.0, 100.0]))
