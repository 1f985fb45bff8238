#!/usr/bin/env python
"""Train DeepCAM segmentation through the optimized pipeline, with staging.

Demonstrates the full storage path of Figure 1: HDF5-like sample files on a
simulated parallel file system, stage-in to a node-local "NVMe" tier, a
host-memory sample cache, the delta-codec GPU-placed decoder plugin, flip
augmentation, and mixed-precision training — plus per-pixel accuracy on
held-out samples.

Run:  python examples/train_deepcam.py [--samples 16] [--epochs 12]
"""

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.accel import SimulatedGpu, V100
from repro.core.plugins import DeepcamDeltaPlugin
from repro.datasets import deepcam
from repro.ml import SGD, Trainer, WarmupSchedule, build_deepcam
from repro.ml.losses import softmax, softmax_cross_entropy
from repro.pipeline import CachedSource, DataLoader, TierSource
from repro.pipeline.ops import RandomFlipOp
from repro.storage import SampleCache, Tier, TierSpec, stage_dataset

CLASS_WEIGHTS = np.array([1.0, 5.0, 2.0], dtype=np.float32)


def loss_fn(pred, target):
    return softmax_cross_entropy(pred, target, class_weights=CLASS_WEIGHTS)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=16)
    ap.add_argument("--epochs", type=int, default=12)
    ap.add_argument("--batch-size", type=int, default=2)
    ap.add_argument("--height", type=int, default=32)
    ap.add_argument("--width", type=int, default=48)
    ap.add_argument("--channels", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = deepcam.DeepcamConfig(
        height=args.height, width=args.width, n_channels=args.channels
    )
    train_set = deepcam.generate_dataset(args.samples, cfg, seed=args.seed)
    val_set = deepcam.generate_dataset(4, cfg, seed=args.seed + 999)
    plugin = DeepcamDeltaPlugin(placement="gpu")

    with tempfile.TemporaryDirectory() as tmp:
        # Figure 1 storage path: shared FS -> stage-in -> node NVMe
        pfs = Tier(TierSpec("pfs", read_bw_gbps=0.5, write_bw_gbps=0.5,
                            latency_s=10e-3), Path(tmp) / "pfs")
        nvme = Tier(TierSpec("nvme", read_bw_gbps=3.2, write_bw_gbps=1.8,
                             latency_s=1e-4), Path(tmp) / "nvme")
        names = []
        for i, s in enumerate(train_set):
            pfs.write(f"sample_{i:04d}.rprs", plugin.encode(s.data, s.label))
            names.append(f"sample_{i:04d}.rprs")
        report = stage_dataset(pfs, nvme, names)
        print(f"staged {report.n_files} files "
              f"({report.total_bytes / 1e6:.2f} MB) in a modeled "
              f"{report.modeled_seconds:.2f}s")

        cache = SampleCache(capacity_bytes=256 * 1024 * 1024)
        source = CachedSource(TierSource(nvme, names), cache)
        device = SimulatedGpu(spec=V100)
        loader = DataLoader(
            source, plugin, batch_size=args.batch_size, shuffle=True,
            seed=args.seed, device=device,
            extra_ops=[RandomFlipOp(probability=0.5)],
        )

        model = build_deepcam(
            in_channels=args.channels, base_filters=4, seed=args.seed
        )
        print(f"model parameters: {model.n_parameters():,}")
        schedule = WarmupSchedule(base_lr=0.05, warmup_steps=4)
        trainer = Trainer(model, loss_fn, SGD(model.parameters(), schedule,
                                              momentum=0.9),
                          mixed_precision=True)
        t0 = time.perf_counter()
        for epoch in range(args.epochs):
            loss = trainer.train_epoch(loader.batches(epoch))
            print(f"epoch {epoch}: weighted CE {loss:.4f} "
                  f"(cache hit rate {cache.stats.hit_rate:.0%})")
        print(f"training took {time.perf_counter() - t0:.1f}s; "
              f"simulated GPU decode total "
              f"{device.busy_seconds * 1e3:.1f} ms")

    # held-out evaluation: per-class pixel recall
    correct = {c: 0 for c in range(deepcam.N_CLASSES)}
    total = {c: 0 for c in range(deepcam.N_CLASSES)}
    for s in val_set:
        blob = plugin.encode(s.data, s.label)
        tensor, mask = plugin.decode(blob)
        logits = model.forward(tensor[None].astype(np.float32),
                               training=False)
        pred = softmax(logits)[0].argmax(axis=0)
        for c in range(deepcam.N_CLASSES):
            sel = mask == c
            total[c] += int(sel.sum())
            correct[c] += int((pred[sel] == c).sum())
    names = {0: "background", 1: "cyclone", 2: "river"}
    print("validation per-class pixel recall:")
    for c in range(deepcam.N_CLASSES):
        recall = correct[c] / total[c] if total[c] else float("nan")
        print(f"  {names[c]:10s}: {recall:.1%} ({total[c]} px)")


if __name__ == "__main__":
    main()
