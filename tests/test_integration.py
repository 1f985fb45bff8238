"""End-to-end integration tests across subsystem boundaries."""

import numpy as np
import pytest

from repro.accel import SimulatedGpu, V100
from repro.core.plugins import (
    CosmoflowBaselinePlugin,
    CosmoflowLutPlugin,
    DeepcamDeltaPlugin,
)
from repro.datasets import cosmoflow, deepcam
from repro.ml import Adam, SGD, Trainer, WarmupSchedule, build_cosmoflow, build_deepcam
from repro.ml.losses import mse_loss, softmax_cross_entropy
from repro.pipeline import CachedSource, DataLoader, TfRecordSource, TierSource
from repro.pipeline.ops import LabelTransformOp, RandomFlipOp
from repro.storage import SampleCache, Tier, TierSpec, stage_dataset, tfrecord


class TestCosmoflowEndToEnd:
    def test_records_to_training(self, tmp_path):
        """Generate → encode → TFRecord on disk → loader → train → learn."""
        cfg = cosmoflow.CosmoflowConfig(grid=8, n_particles=4000, n_clusters=8)
        ds = cosmoflow.generate_dataset(8, cfg, seed=0)
        plugin = CosmoflowLutPlugin("gpu")
        path = tmp_path / "cosmo.tfr"
        with tfrecord.TfRecordWriter(path) as w:
            for s in ds:
                w.write(plugin.encode(s.data, s.label))

        device = SimulatedGpu(spec=V100)
        loader = DataLoader(
            TfRecordSource(path), plugin, batch_size=4, seed=1, device=device,
            extra_ops=[LabelTransformOp(cosmoflow.normalize_label)],
        )
        model = build_cosmoflow(grid=8, n_conv_layers=2, base_filters=2,
                                dense_units=(8,), seed=1)
        trainer = Trainer(
            model, mse_loss,
            Adam(model.parameters(), WarmupSchedule(base_lr=3e-3)),
            mixed_precision=True,
        )
        losses = [trainer.train_epoch(loader.batches(e)) for e in range(5)]
        assert losses[-1] < losses[0]
        assert device.busy_seconds > 0

    def test_base_and_decoded_pipelines_agree_on_content(self, tmp_path):
        cfg = cosmoflow.CosmoflowConfig(grid=8, n_particles=4000)
        ds = cosmoflow.generate_dataset(3, cfg, seed=5)
        base, plug = CosmoflowBaselinePlugin(), CosmoflowLutPlugin("cpu")
        for s in ds:
            t_base, _ = base.decode(base.encode(s.data, s.label))
            t_dec, _ = plug.decode(plug.encode(s.data, s.label))
            assert np.array_equal(
                t_dec, t_base.astype(np.float16)
            )  # decoded == FP16(baseline): lossless cast


class TestDeepcamEndToEnd:
    def test_figure1_storage_path(self, tmp_path):
        """PFS → stage-in → NVMe tier → cache → pipeline → training."""
        cfg = deepcam.DeepcamConfig(height=16, width=24, n_channels=4)
        ds = deepcam.generate_dataset(6, cfg, seed=2)
        plugin = DeepcamDeltaPlugin("gpu")

        pfs = Tier(TierSpec("pfs", 0.5, 0.5, 1e-2), tmp_path / "pfs")
        nvme = Tier(TierSpec("nvme", 3.2, 1.8, 1e-4), tmp_path / "nvme")
        names = []
        for i, s in enumerate(ds):
            pfs.write(f"s{i}", plugin.encode(s.data, s.label))
            names.append(f"s{i}")
        report = stage_dataset(pfs, nvme, names)
        assert report.n_files == 6

        cache = SampleCache(10**8)
        device = SimulatedGpu(spec=V100)
        loader = DataLoader(
            CachedSource(TierSource(nvme, names), cache), plugin,
            batch_size=2, seed=0, device=device,
            extra_ops=[RandomFlipOp(0.5)],
        )
        model = build_deepcam(in_channels=4, base_filters=2, seed=0)
        weights = np.array([1.0, 5.0, 2.0], dtype=np.float32)
        trainer = Trainer(
            model,
            lambda p, t: softmax_cross_entropy(p, t, class_weights=weights),
            SGD(model.parameters(), WarmupSchedule(base_lr=0.05, warmup_steps=2),
                momentum=0.9),
            mixed_precision=True,
        )
        losses = [trainer.train_epoch(loader.batches(e)) for e in range(3)]
        assert losses[-1] < losses[0]
        # second epoch onward hits the host cache
        assert cache.stats.hits > 0

    def test_training_reproducible_bit_for_bit(self):
        cfg = deepcam.DeepcamConfig(height=16, width=24, n_channels=4)
        ds = deepcam.generate_dataset(4, cfg, seed=3)
        plugin = DeepcamDeltaPlugin("cpu")
        blobs = [plugin.encode(s.data, s.label) for s in ds]

        def run():
            from repro.pipeline import ListSource

            loader = DataLoader(ListSource(blobs), plugin, batch_size=2,
                                seed=7)
            model = build_deepcam(in_channels=4, base_filters=2, seed=7)
            trainer = Trainer(
                model,
                lambda p, t: softmax_cross_entropy(p, t),
                SGD(model.parameters(), WarmupSchedule(base_lr=0.01)),
                mixed_precision=True,
            )
            for e in range(2):
                trainer.train_epoch(loader.batches(e))
            return trainer.history.step_losses

        assert run() == run()


class TestCrossPluginConsistency:
    def test_all_plugins_roundtrip_labels(self, deepcam_sample, cosmo_sample):
        cases = [
            (DeepcamDeltaPlugin("cpu"), deepcam_sample),
            (CosmoflowLutPlugin("cpu"), cosmo_sample),
            (CosmoflowBaselinePlugin(), cosmo_sample),
        ]
        for plugin, sample in cases:
            blob = plugin.encode(sample.data, sample.label)
            _, label = plugin.decode(blob)
            assert np.array_equal(label, sample.label), type(plugin).__name__

    def test_gpu_memory_guard_applies(self, cosmo_sample):
        device = SimulatedGpu(spec=V100)
        device.alloc(int(15.9e9))
        with pytest.raises(MemoryError):
            device.alloc(10**9)
