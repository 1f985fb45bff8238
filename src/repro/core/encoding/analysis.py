"""Sample-content analysis used to motivate the codecs (paper §V, Fig. 5).

The paper develops each codec from an analysis of the samples' statistical
structure: CosmoFlow samples have a power-law frequency distribution over a
few hundred unique values and only tens of thousands of unique 4-redshift
groups; DeepCAM samples are smooth along x except at extreme-weather
regions.  This module computes those statistics so the Fig. 5 harness can
regenerate the paper's plots and the dataset generators can be validated
against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.encoding.lut import unique_groups

__all__ = [
    "CosmoSampleStats",
    "DeepcamLineStats",
    "analyze_cosmoflow_sample",
    "analyze_deepcam_sample",
    "powerlaw_slope",
]


@dataclass(frozen=True)
class CosmoSampleStats:
    """Unique-value statistics of one CosmoFlow sample (Fig. 5a–c)."""

    n_values: int  # total voxel values (all redshifts)
    n_unique_values: int  # Fig 5b: unique scalar values
    n_unique_groups: int  # Fig 5c: unique 4-redshift groups
    n_possible_permutations: float  # n_unique_values ** n_channels
    value_frequencies: np.ndarray  # sorted descending (Fig 5a)
    powerlaw_slope: float  # log-log slope of rank-frequency curve

    @property
    def group_fraction(self) -> float:
        """Unique groups as a fraction of the permutation space."""
        return self.n_unique_groups / max(self.n_possible_permutations, 1.0)

    @property
    def keys_fit_16bit(self) -> bool:
        """Whether one 16-bit key per voxel can index every group."""
        return self.n_unique_groups <= 1 << 16


@dataclass(frozen=True)
class DeepcamLineStats:
    """Smoothness statistics of one DeepCAM channel along the x-direction."""

    mean_abs_diff_x: float
    mean_abs_diff_y: float
    frac_smooth_lines: float  # lines whose diff-exponent spread fits 3 bits
    abrupt_fraction: float  # diffs larger than 25% of channel scale


def powerlaw_slope(frequencies: np.ndarray) -> float:
    """Least-squares slope of log(frequency) vs log(rank).

    A clean power law gives a straight line; the paper's Fig. 5a shows the
    CosmoFlow value frequencies following one.
    """
    freqs = np.sort(np.asarray(frequencies, dtype=np.float64))[::-1]
    freqs = freqs[freqs > 0]
    if freqs.size < 2:
        return 0.0
    ranks = np.arange(1, freqs.size + 1, dtype=np.float64)
    x = np.log(ranks)
    y = np.log(freqs)
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def analyze_cosmoflow_sample(sample: np.ndarray) -> CosmoSampleStats:
    """Compute Fig. 5 statistics for one channel-first CosmoFlow sample."""
    sample = np.asarray(sample)
    C = sample.shape[0]
    flat = sample.reshape(C, -1)
    uniq_vals, counts = np.unique(flat, return_counts=True)
    uniq_groups, _ = unique_groups(flat)
    freqs = np.sort(counts)[::-1]
    return CosmoSampleStats(
        n_values=int(flat.size),
        n_unique_values=int(uniq_vals.size),
        n_unique_groups=int(uniq_groups.shape[0]),
        n_possible_permutations=float(uniq_vals.size) ** C,
        value_frequencies=freqs,
        powerlaw_slope=powerlaw_slope(freqs),
    )


def analyze_deepcam_sample(
    channel: np.ndarray, exponent_window: int = 7, abrupt_frac: float = 0.25
) -> DeepcamLineStats:
    """Quantify the x-smoothness the DeepCAM codec exploits.

    ``frac_smooth_lines`` counts lines whose non-zero difference exponents
    span at most ``exponent_window`` binades — exactly the lines the 3-bit
    exponent-offset encoding can compress in a single segment regime.
    """
    img = np.asarray(channel, dtype=np.float32)
    if img.ndim != 2:
        raise ValueError("expected a single 2-D channel")
    dx = np.abs(np.diff(img, axis=1))
    dy = np.abs(np.diff(img, axis=0))
    scale = float(np.max(np.abs(img))) or 1.0

    smooth = 0
    for line in dx:
        nz = line[line > 0]
        if nz.size == 0:
            smooth += 1
            continue
        e = np.frexp(nz)[1]
        if int(e.max() - e.min()) <= exponent_window:
            smooth += 1
    return DeepcamLineStats(
        mean_abs_diff_x=float(dx.mean()) if dx.size else 0.0,
        mean_abs_diff_y=float(dy.mean()) if dy.size else 0.0,
        frac_smooth_lines=smooth / img.shape[0],
        abrupt_fraction=float(np.mean(dx > abrupt_frac * scale)) if dx.size else 0.0,
    )
