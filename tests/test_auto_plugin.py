"""Tests for automatic codec selection and metrics."""

import numpy as np
import pytest

from repro.accel.device import SimulatedGpu, V100
from repro.core.encoding import container
from repro.core.plugins import AutoPlugin, choose_codec
from repro.datasets import cosmoflow, deepcam
from repro.ml.metrics import (
    TimeToAccuracy,
    confusion_matrix,
    epochs_to_target,
    iou_per_class,
    mean_absolute_error,
    pixel_recall,
    time_to_accuracy,
)


@pytest.fixture(scope="module")
def cosmo32():
    return cosmoflow.generate_sample(
        cosmoflow.CosmoflowConfig(grid=32), seed=1
    )


@pytest.fixture(scope="module")
def deepcam8():
    return deepcam.generate_sample(
        deepcam.DeepcamConfig(height=32, width=48, n_channels=8), seed=1
    )


class TestChooseCodec:
    def test_cosmoflow_picks_lut(self, cosmo32):
        assert choose_codec(cosmo32.data).codec == "lut"

    def test_deepcam_picks_delta(self, deepcam8):
        assert choose_codec(deepcam8.data).codec == "delta"

    def test_noise_picks_raw(self):
        rng = np.random.default_rng(0)
        noise = (rng.standard_normal((2, 32, 32))
                 * 10.0 ** rng.integers(-5, 5, (2, 32, 32)).astype(float)
                 ).astype(np.float32)
        assert choose_codec(noise).codec == "raw"

    def test_small_lut_not_worth_it(self):
        # tiny integer volume: table overhead kills the ratio -> raw
        rng = np.random.default_rng(1)
        tiny = rng.integers(0, 3000, (4, 8, 8, 8)).astype(np.int16)
        assert choose_codec(tiny).codec == "raw"

    def test_1d_rejected(self):
        assert choose_codec(np.zeros(5)).codec == "raw"

    def test_reason_is_informative(self, cosmo32):
        choice = choose_codec(cosmo32.data)
        assert "unique groups" in choice.reason


class TestAutoPlugin:
    def test_cosmoflow_roundtrip(self, cosmo32):
        plugin = AutoPlugin("cpu")
        blob = plugin.encode(cosmo32.data, cosmo32.label)
        assert container.peek_codec(blob) == "lut"
        tensor, label = plugin.decode(blob)
        assert tensor.dtype == np.float16
        assert np.array_equal(tensor.astype(np.int16), cosmo32.data)
        assert np.array_equal(label, cosmo32.label)

    def test_deepcam_roundtrip_accuracy(self, deepcam8):
        plugin = AutoPlugin("cpu")
        blob = plugin.encode(deepcam8.data, deepcam8.label)
        assert container.peek_codec(blob) == "delta"
        tensor, _ = plugin.decode(blob)
        # decoded values are the standardized channels (fused normalize)
        C = deepcam8.data.shape[0]
        flat = deepcam8.data.reshape(C, -1).astype(np.float64)
        norm = (
            (deepcam8.data - flat.mean(axis=1)[:, None, None])
            / flat.std(axis=1)[:, None, None]
        ).astype(np.float32)
        scale = np.abs(norm).max()
        sig = np.abs(norm) > 0.01 * scale
        rel = np.abs(tensor.astype(np.float32) - norm)[sig] / np.abs(norm)[sig]
        assert rel.max() < 0.06

    def test_raw_passthrough_lossless(self):
        rng = np.random.default_rng(2)
        noise = (rng.standard_normal((2, 16, 16))
                 * 10.0 ** rng.integers(-5, 5, (2, 16, 16)).astype(float)
                 ).astype(np.float32)
        plugin = AutoPlugin("cpu")
        blob = plugin.encode(noise, np.zeros(1))
        tensor, _ = plugin.decode(blob)
        assert np.array_equal(tensor, noise)

    def test_gpu_placement_decodes_identically(self, cosmo32):
        plugin = AutoPlugin("gpu")
        blob = plugin.encode(cosmo32.data, cosmo32.label)
        dev = SimulatedGpu(spec=V100)
        t_gpu, _ = plugin.decode(blob, dev)
        t_cpu, _ = AutoPlugin("cpu").decode(blob)
        assert np.array_equal(t_gpu, t_cpu)
        assert dev.busy_seconds > 0

    def test_measure_costs(self, cosmo32, deepcam8):
        for sample in (cosmo32, deepcam8):
            cost = AutoPlugin("gpu").measure(sample.data, sample.label)
            assert cost.stored_bytes > 0
            assert cost.h2d_bytes == cost.stored_bytes
            assert cost.gpu_decode_seconds > 0

    def test_mixed_dataset_dispatch(self, cosmo32, deepcam8):
        plugin = AutoPlugin("cpu")
        blobs = [
            plugin.encode(cosmo32.data, cosmo32.label),
            plugin.encode(deepcam8.data, deepcam8.label),
        ]
        shapes = [plugin.decode(b)[0].shape for b in blobs]
        assert shapes == [(4, 32, 32, 32), (8, 32, 48)]

    def test_invalid_placement(self):
        with pytest.raises(ValueError):
            AutoPlugin("dpu")


class TestMetrics:
    def test_confusion_matrix(self):
        pred = np.array([0, 1, 1, 2])
        target = np.array([0, 1, 2, 2])
        cm = confusion_matrix(pred, target, 3)
        assert cm[0, 0] == 1 and cm[1, 1] == 1
        assert cm[2, 1] == 1 and cm[2, 2] == 1
        assert cm.sum() == 4

    def test_confusion_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([3]), np.array([0]), 3)
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0, 1]), np.array([0]), 3)

    def test_iou_perfect(self):
        cm = np.diag([5, 3, 2])
        assert np.allclose(iou_per_class(cm), 1.0)

    def test_iou_absent_class_nan(self):
        cm = np.array([[4, 0], [0, 0]])
        iou = iou_per_class(cm)
        assert iou[0] == 1.0 and np.isnan(iou[1])

    def test_recall(self):
        cm = np.array([[3, 1], [2, 2]])
        rec = pixel_recall(cm)
        assert rec[0] == pytest.approx(0.75)
        assert rec[1] == pytest.approx(0.5)

    def test_mae(self):
        assert mean_absolute_error(
            np.array([1.0, -1.0]), np.array([0.0, 0.0])
        ) == 1.0
        with pytest.raises(ValueError):
            mean_absolute_error(np.zeros(2), np.zeros(3))

    def test_epochs_to_target(self):
        assert epochs_to_target([3.0, 2.0, 1.0], 2.0) == 2
        assert epochs_to_target([3.0, 2.5], 1.0) is None

    def test_time_to_accuracy(self):
        tta = time_to_accuracy([3.0, 1.0], target_loss=1.5,
                               samples_per_epoch=100,
                               throughput_samples_per_s=50.0)
        assert isinstance(tta, TimeToAccuracy)
        assert tta.epochs == 2 and tta.seconds == pytest.approx(4.0)
        assert time_to_accuracy([3.0], 1.0, 100, 50.0) is None
        with pytest.raises(ValueError):
            time_to_accuracy([1.0], 1.0, 100, 0.0)
