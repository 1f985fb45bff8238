"""Quantitative text claims from §V and §IX, measured on real encodes.

* §V-A: "roughly 3% of the values with larger than 10% error, primarily for
  small values close to zero" (DeepCAM lossy codec).
* §V-B: lookup tables give ≈4× compression vs gzip's ≈5×; unique groups ≪
  permutations; CosmoFlow decode "is not lossy when casting to FP16".
* §IX-A: pageable PCIe bandwidth 4–8 GB/s (V100 node) and 6–8 GB/s (A100
  node) for 4–64 MB transfers; decode ≈4% of DeepCAM per-sample time.
* §IX-B: decode <1% of CosmoFlow per-sample time.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.accel.transfer import PCIE3, PCIE4, pageable_bandwidth
from repro.core.encoding import lut
from repro.core.encoding.delta import DeltaCodecConfig
from repro.core.plugins import (
    CosmoflowLutPlugin,
    DeepcamDeltaPlugin,
)
from repro.core.plugins.deepcam import channel_stats, _normalize
from repro.datasets import cosmoflow, deepcam
from repro.experiments.config import COSMOFLOW, DEEPCAM, cosmoflow_costs, deepcam_costs
from repro.experiments.harness import ExperimentResult
from repro.simulate import CORI_V100, TrainSimConfig, simulate_node

__all__ = ["run"]

_MB = 1 << 20


def _deepcam_error_stats(
    seed: int = 5, height: int = 64, width: int = 96,
    quality_gate: bool = True,
):
    """Relative-error tail of the lossy DeepCAM codec (vs FP32 truth).

    With ``quality_gate=False`` the codec runs open-loop like the paper's
    (no reconstruction check), reproducing its error profile; the default
    gated mode keeps the tail far smaller.
    """
    sample = deepcam.generate_sample(
        deepcam.DeepcamConfig(height=height, width=width), seed=seed
    )
    plugin = DeepcamDeltaPlugin(
        placement="cpu",
        config=DeltaCodecConfig(quality_gate=quality_gate),
    )
    blob = plugin.encode(sample.data, sample.label)
    decoded, _ = plugin.decode(blob)
    mean, std = channel_stats(sample.data)
    truth = _normalize(sample.data, mean, std)
    err = np.abs(decoded.astype(np.float32) - truth)
    rel = err / np.maximum(np.abs(truth), 1e-12)
    frac_over_10pct = float(np.mean(rel > 0.10))
    # the >10%-error values should concentrate near zero, as the paper says
    offenders = np.abs(truth[rel > 0.10])
    scale = float(np.abs(truth).max())
    near_zero = (
        float(np.mean(offenders < 0.05 * scale)) if offenders.size else 1.0
    )
    return frac_over_10pct, near_zero, len(blob) / sample.data.nbytes


def _cosmo_compression(seed: int = 6, grid: int = 128):
    """Measured LUT vs gzip ratios at the paper's 128^3 decomposition.

    The lookup table amortizes with volume size; at the true sample shape
    the measured ratio lands on the paper's ~4x.
    """
    n_particles = 2_000_000 if grid >= 128 else 900_000
    sample = cosmoflow.generate_sample(
        cosmoflow.CosmoflowConfig(grid=grid, n_particles=n_particles,
                                  n_clusters=48),
        seed=seed,
    )
    enc = lut.encode_sample(sample.data)
    raw = sample.data.nbytes
    gz = len(zlib.compress(sample.data.tobytes(), 6))
    plugin = CosmoflowLutPlugin(placement="cpu")
    blob = plugin.encode(sample.data, sample.label)
    decoded, _ = plugin.decode(blob)
    ref = np.log1p(sample.data.astype(np.float32)).astype(np.float16)
    lossless_fp16 = bool(np.array_equal(decoded, ref))
    return raw / enc.nbytes, raw / gz, lossless_fp16


def _decode_overheads(sim_samples_cap: int = 48):
    """Modeled decode share of GPU time per workload (Cori-V100, bs 4)."""
    shares = {}
    for wl, costs, key in (
        (DEEPCAM, deepcam_costs(), "gpu"),
        (COSMOFLOW, cosmoflow_costs(), "plugin"),
    ):
        cfg = TrainSimConfig(
            machine=CORI_V100, workload=wl, cost=costs[key],
            plugin_name=key, placement="gpu", samples_per_gpu=128,
            batch_size=4, staged=True, epochs=3,
            sim_samples_cap=sim_samples_cap,
        )
        shares[wl.name] = simulate_node(cfg).decode_share
    return shares


def run(verbose: bool = True) -> ExperimentResult:
    """Measure every quantitative §V/§IX claim and tabulate paper vs us."""
    res = ExperimentResult(
        exhibit="Text claims",
        title="Quantitative claims from §V and §IX",
        headers=["claim", "paper", "measured"],
    )
    frac, near_zero, ratio = _deepcam_error_stats()
    res.add("DeepCAM values with >10% error (gated codec)", "~3%",
            f"{100 * frac:.2f}%")
    frac_open, near_zero_open, ratio_open = _deepcam_error_stats(
        quality_gate=False
    )
    res.add("DeepCAM values with >10% error (open-loop, paper mode)", "~3%",
            f"{100 * frac_open:.2f}%")
    res.add("  … of which near zero", "primarily",
            f"{100 * near_zero_open:.0f}%")
    res.add("DeepCAM encoded/raw size (gated / open-loop)", "(unstated)",
            f"{1 / ratio:.2f} / {1 / ratio_open:.2f}")
    lut_ratio, gz_ratio, lossless = _cosmo_compression()
    res.add("CosmoFlow LUT compression (128^3, vs int16 counts)", "~4x",
            f"{lut_ratio:.1f}x")
    res.add("CosmoFlow gzip compression", "~5x", f"{gz_ratio:.1f}x")
    res.add("CosmoFlow decode lossless to FP16", "yes",
            "yes" if lossless else "NO")
    shares = _decode_overheads()
    res.add("DeepCAM decode share of GPU time", "~4%",
            f"{100 * shares['deepcam']:.1f}%")
    res.add("CosmoFlow decode share of GPU time", "<1%",
            f"{100 * shares['cosmoflow']:.1f}%")
    for mb in (4, 64):
        bw3 = pageable_bandwidth(PCIE3, mb * _MB) / 1e9
        bw4 = pageable_bandwidth(PCIE4, mb * _MB) / 1e9
        res.add(f"pageable BW at {mb} MB (V100 node)", "4-8 GB/s",
                f"{bw3:.1f} GB/s")
        res.add(f"pageable BW at {mb} MB (A100 node)", "6-8 GB/s",
                f"{bw4:.1f} GB/s")
    res.findings = {
        "deepcam frac >10% err": frac,
        "deepcam frac >10% err open loop": frac_open,
        "deepcam open-loop offenders near zero": near_zero_open,
        "lut ratio": lut_ratio,
        "gzip ratio": gz_ratio,
        "deepcam decode share": shares["deepcam"],
        "cosmoflow decode share": shares["cosmoflow"],
    }
    if verbose:
        print(res.render())
    return res
