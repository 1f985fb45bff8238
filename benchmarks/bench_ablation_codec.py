"""Ablations of the codec design choices DESIGN.md §6 calls out.

Sweeps the differential codec's knobs — mantissa/exponent bit split,
segment (block) size, quality-gate tolerance, gate on/off — and the LUT
codec's table-size limit, measuring compression ratio and error tail on
one synthetic DeepCAM/CosmoFlow sample.  Each row answers a "why this
design point?" question:

* 4 mantissa bits (paper's choice) balances ratio against the >10%-error
  tail; fewer mantissa bits widen the exponent window but blow up the tail.
* 64-diff segments amortize descriptor overhead while the FP16 literal
  re-anchors keep drift bounded.
* the quality gate trades a little ratio for a hard error bound.
"""

import numpy as np

from repro.core.encoding import lut
from repro.core.encoding.delta import DeltaCodecConfig, decode_images, encode_image
from repro.core.plugins.deepcam import _normalize, channel_stats
from repro.datasets import cosmoflow, deepcam
from repro.experiments.harness import print_table


def _deepcam_channels():
    cfg = deepcam.DeepcamConfig(height=64, width=96, n_channels=8)
    s = deepcam.generate_sample(cfg, seed=11)
    mean, std = channel_stats(s.data)
    return _normalize(s.data, mean, std)


def _codec_stats(channels, cfg):
    enc_bytes = 0
    err_tail = []
    for ch in channels:
        enc = encode_image(ch, cfg)
        enc_bytes += enc.nbytes
        out = decode_images([enc])[0].astype(np.float32)
        rel = np.abs(out - ch) / np.maximum(np.abs(ch), 1e-12)
        err_tail.append(np.mean(rel > 0.10))
    raw = channels.nbytes
    return raw / enc_bytes, float(np.mean(err_tail))


def test_ablation_mantissa_bits(once):
    channels = _deepcam_channels()

    def sweep():
        rows = []
        for bits in (2, 3, 4, 5):
            cfg = DeltaCodecConfig(mantissa_bits=bits, quality_gate=False)
            ratio, tail = _codec_stats(channels, cfg)
            rows.append([f"{bits}m/{7 - bits}e", ratio, 100 * tail])
        return rows

    rows = once(sweep)
    print()
    print_table(["bit split", "ratio", ">10% err (%)"], rows)
    ratios = [r[1] for r in rows]
    # wider exponent windows (fewer mantissa bits) compress at least as well
    assert ratios[0] >= ratios[-1] - 0.2
    # every split is open-loop here, so the near-zero error tail is of the
    # same order across splits; what changes is the per-value precision,
    # which the compression column captures
    assert all(r[2] < 25.0 for r in rows)


def test_ablation_block_size(once):
    channels = _deepcam_channels()

    def sweep():
        rows = []
        for bs in (8, 16, 64, 256):
            cfg = DeltaCodecConfig(block_size=bs)
            ratio, tail = _codec_stats(channels, cfg)
            rows.append([bs, ratio, 100 * tail])
        return rows

    rows = once(sweep)
    print()
    print_table(["block size", "ratio", ">10% err (%)"], rows)
    # all gated variants keep the tail tiny regardless of block size
    assert max(r[2] for r in rows) < 1.0


def test_ablation_quality_gate(once):
    channels = _deepcam_channels()

    def sweep():
        rows = []
        for tol, gate in ((0.01, True), (0.05, True), (0.20, True),
                          (0.05, False)):
            cfg = DeltaCodecConfig(rel_tol=tol, quality_gate=gate)
            ratio, tail = _codec_stats(channels, cfg)
            rows.append([f"tol={tol} gate={gate}", ratio, 100 * tail])
        return rows

    rows = once(sweep)
    print()
    print_table(["config", "ratio", ">10% err (%)"], rows)
    gated = [r for r in rows if "gate=True" in r[0]]
    open_loop = [r for r in rows if "gate=False" in r[0]][0]
    # the gate costs compression but buys a bounded tail
    assert open_loop[1] >= max(g[1] for g in gated) - 0.05
    assert open_loop[2] >= max(g[2] for g in gated)


def test_ablation_lut_table_limit(once):
    cfg = cosmoflow.CosmoflowConfig(grid=32)
    sample = cosmoflow.generate_sample(cfg, seed=12)

    def sweep():
        rows = []
        for limit in (128, 1024, 65536):
            c = lut.LutCodecConfig(max_groups_per_table=limit)
            enc = lut.encode_sample(sample.data, c)
            assert np.array_equal(lut.decode_sample(enc), sample.data)
            rows.append([
                limit, len(enc.tables),
                sample.data.nbytes / enc.nbytes,
                max(t.key_width for t in enc.tables),
            ])
        return rows

    rows = once(sweep)
    print()
    print_table(["max groups", "tables", "ratio", "key width"], rows)
    # smaller tables split the volume (multi-table path) but narrow the keys
    assert rows[0][1] > rows[-1][1]
    assert rows[0][3] <= rows[-1][3]
