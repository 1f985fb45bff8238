#!/usr/bin/env python
"""Quickstart: encode, decode, and inspect both codecs in two minutes.

Walks the package's core loop on synthetic data:

1. generate a CosmoFlow-like sample and a DeepCAM-like sample,
2. encode each with its domain-specific codec,
3. decode on the "CPU" and on the simulated GPU,
4. report compression ratios, accuracy, and the fused-preprocessing win.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.accel import SimulatedGpu, V100
from repro.core.plugins import (
    CosmoflowBaselinePlugin,
    CosmoflowLutPlugin,
    DeepcamBaselinePlugin,
    DeepcamDeltaPlugin,
)
from repro.datasets import cosmoflow, deepcam


def cosmoflow_demo() -> None:
    print("=== CosmoFlow: lookup-table codec ===")
    sample = cosmoflow.generate_sample(
        cosmoflow.CosmoflowConfig(grid=32), seed=1
    )
    print(f"sample: {sample.data.shape} {sample.data.dtype} "
          f"({sample.data.nbytes / 1e6:.2f} MB), "
          f"labels (cosmological params): {np.round(sample.label, 3)}")

    base = CosmoflowBaselinePlugin()
    plugin = CosmoflowLutPlugin(placement="gpu")
    base_blob = base.encode(sample.data, sample.label)
    enc_blob = plugin.encode(sample.data, sample.label)
    print(f"baseline container: {len(base_blob) / 1e6:.2f} MB | "
          f"LUT container: {len(enc_blob) / 1e6:.2f} MB "
          f"({len(base_blob) / len(enc_blob):.1f}x smaller)")

    device = SimulatedGpu(spec=V100)
    decoded, _ = plugin.decode(enc_blob, device)
    reference = np.log1p(sample.data.astype(np.float32)).astype(np.float16)
    print(f"GPU decode (fused log1p on the lookup table): "
          f"dtype={decoded.dtype}, "
          f"bit-exact vs FP16 reference: {np.array_equal(decoded, reference)}")
    print(f"simulated V100 kernel time: {device.busy_seconds * 1e6:.1f} us "
          f"({[k.name for k in device.launches]})")


def deepcam_demo() -> None:
    print("\n=== DeepCAM: differential codec ===")
    sample = deepcam.generate_sample(
        deepcam.DeepcamConfig(height=96, width=144), seed=2
    )
    print(f"sample: {sample.data.shape} {sample.data.dtype} "
          f"({sample.data.nbytes / 1e6:.2f} MB), mask classes: "
          f"{np.unique(sample.label).tolist()}")

    base = DeepcamBaselinePlugin()
    plugin = DeepcamDeltaPlugin(placement="gpu")
    base_blob = base.encode(sample.data, sample.label)
    enc_blob = plugin.encode(sample.data, sample.label)
    print(f"baseline container: {len(base_blob) / 1e6:.2f} MB | "
          f"delta container: {len(enc_blob) / 1e6:.2f} MB "
          f"({len(base_blob) / len(enc_blob):.1f}x smaller)")

    device = SimulatedGpu(spec=V100)
    decoded, _ = plugin.decode(enc_blob, device)
    truth, _ = base.decode(base_blob)
    err = np.abs(decoded.astype(np.float32) - truth)
    rel = err / np.maximum(np.abs(truth), 1e-12)
    print(f"GPU decode: dtype={decoded.dtype}; values with >10% error: "
          f"{100 * np.mean(rel > 0.1):.2f}% (lossy, near-zero values only)")
    print(f"simulated V100 decode time: {device.busy_seconds * 1e3:.2f} ms")


if __name__ == "__main__":
    cosmoflow_demo()
    deepcam_demo()
