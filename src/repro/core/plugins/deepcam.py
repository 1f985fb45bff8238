"""DeepCAM sample plugins (paper §V-A, §VI, §IX-A).

Three representations are evaluated, matching the paper's Figure 8 bars:

* :class:`DeepcamBaselinePlugin` ("base") — samples stored as raw FP32
  HDF5-style containers; the CPU normalizes every value at load time and
  the full FP32 tensor crosses the CPU→GPU link.
* :class:`DeepcamDeltaPlugin` with ``placement="cpu"`` ("cpu plugin") —
  samples stored delta-encoded; the host decodes to FP16, so storage and
  link traffic both shrink, but host cycles are still spent.
* :class:`DeepcamDeltaPlugin` with ``placement="gpu"`` ("gpu plugin") —
  the *encoded* bytes cross the link and the device decodes, minimizing
  both link traffic and host preprocessing.

Per-channel normalization is **fused into the encoder**: the stored values
are already standardized, so decode needs no separate normalization pass
(and the wide physical scales — 1e5 Pa pressures vs 1e-3 kg/kg humidities —
fit FP16 after standardization).  The per-channel mean/std travel in the
container's metadata; labels (segmentation masks) are lossless.
"""

from __future__ import annotations

import numpy as np

from repro.accel.warp import estimate_delta_decode_time
from repro.core.encoding import container
from repro.core.encoding.delta import DeltaCodecConfig
from repro.core.encoding.delta_decode_fast import (
    decode_image_fast,
    decode_images_fast,
)
from repro.core.encoding.delta_fast import encode_image_fast
from repro.core.plugins.base import SampleCost, SamplePlugin

__all__ = [
    "DeepcamBaselinePlugin",
    "DeepcamDeltaPlugin",
    "channel_stats",
    "delta_kernel_cost",
    "holdout_filter",
]


def holdout_filter(fraction: float, seed: int = 0):
    """Deterministic per-index holdout predicate (training-split style).

    Drops ~``fraction`` of samples by a seeded hash of the sample index —
    stable across epochs, runs, and machines, and reading *only* the
    index, which is what lets the graph optimizer hoist it all the way
    out of the executor (dropped samples are never read or decoded).
    """
    if not 0 <= fraction < 1:
        raise ValueError("holdout fraction must be in [0, 1)")
    cut = int(fraction * 10_000)

    def predicate(item) -> bool:
        import hashlib

        digest = hashlib.blake2b(
            f"{seed}:{item.index}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") % 10_000 >= cut

    return predicate


def channel_stats(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean/std of one sample (MLPerf DeepCAM standardization)."""
    C = data.shape[0]
    flat = data.reshape(C, -1).astype(np.float64)
    mean = flat.mean(axis=1)
    std = flat.std(axis=1)
    std = np.where(std < 1e-12, 1.0, std)
    return mean.astype(np.float32), std.astype(np.float32)


def _normalize(data: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    bc = (slice(None),) + (None,) * (data.ndim - 1)
    return ((data.astype(np.float32) - mean[bc]) / std[bc]).astype(np.float32)


def delta_kernel_cost(channels, out: np.ndarray, spec) -> list[tuple]:
    """Device launch of one delta-encoded sample's decode into ``out``.

    The hierarchically warp-parallel differential decode, timed by the
    warp model (:func:`~repro.accel.warp.estimate_delta_decode_time`),
    reads the encoded channels and writes the FP16 tensor.
    """
    seconds = estimate_delta_decode_time(channels, spec)
    moved = sum(e.nbytes for e in channels) + out.nbytes
    return [("delta_decode", moved, 0.0, seconds)]


def _decode_delta(channels) -> np.ndarray:
    """One sample's FP16 tensor: one column walk per channel."""
    H, W = channels[0].shape
    out = np.empty((len(channels), H, W), dtype=np.float16)
    for c, enc in enumerate(channels):
        decode_image_fast(enc, out=out[c])
    return out


def _decode_deltas(samples) -> list[np.ndarray]:
    """Every channel of every same-shape sample in one column walk
    (:func:`decode_images_fast`); mixed shapes raise ``ValueError``."""
    C = len(samples[0])
    if any(len(channels) != C for channels in samples):
        raise ValueError("mixed channel counts")
    H, W = samples[0][0].shape
    outs = [np.empty((C, H, W), dtype=np.float16) for _ in samples]
    decode_images_fast(
        [enc for channels in samples for enc in channels],
        outs=[out[c] for out in outs for c in range(C)],
    )
    return outs


class DeepcamBaselinePlugin(SamplePlugin):
    """Raw FP32 storage + CPU normalization — the paper's baseline."""

    name = "base"
    placement = "cpu"

    def encode(self, data: np.ndarray, label: np.ndarray) -> bytes:
        data = np.ascontiguousarray(data, dtype=np.float32)
        mean, std = channel_stats(data)
        return container.pack_raw_sample(
            data, label, extra={"mean": mean.tolist(), "std": std.tolist()}
        )

    def _unpack(self, blob: bytes):
        codec, data, label, extra = container.unpack_sample(blob)
        if codec != self.codec:
            raise ValueError(f"{type(self).__name__} got a {codec!r} container")
        mean = np.asarray(extra["mean"], dtype=np.float32)
        std = np.asarray(extra["std"], dtype=np.float32)
        return (data, mean, std), label

    def decode_group(self, blobs, func=None, device=None) -> list:
        """Normalize every sample on the CPU; ``func`` runs after."""
        return self._decode_slots(
            blobs, device, one=lambda p: _normalize(*p), post=func
        )

    def measure(self, data: np.ndarray, label: np.ndarray) -> SampleCost:
        blob = self.encode(data, label)
        tensor, _ = self.decode(blob)
        return SampleCost(
            stored_bytes=len(blob),
            h2d_bytes=tensor.nbytes,  # full FP32 tensor crosses the link
            decoded_bytes=tensor.nbytes,
            cpu_preprocess_elems=int(data.size),
        )


class DeepcamDeltaPlugin(SamplePlugin):
    """Differential-codec storage with CPU- or GPU-placed decode."""

    codec = "delta"

    def __init__(
        self,
        placement: str = "gpu",
        config: DeltaCodecConfig | None = None,
    ) -> None:
        if placement not in ("cpu", "gpu"):
            raise ValueError("placement must be 'cpu' or 'gpu'")
        self.placement = placement
        self.name = placement
        self.graph_name = f"deepcam-delta-{placement}"
        self.config = config or DeltaCodecConfig()

    def encode(self, data: np.ndarray, label: np.ndarray) -> bytes:
        data = np.ascontiguousarray(data, dtype=np.float32)
        mean, std = channel_stats(data)
        normalized = _normalize(data, mean, std)
        channels = [encode_image_fast(ch, self.config) for ch in normalized]
        return container.pack_delta_sample(
            channels, label, extra={"mean": mean.tolist(), "std": std.tolist()}
        )

    def decode_group(self, blobs, func=None, device=None) -> list:
        """Decode every sample's lines; ``func`` runs as one pass after.

        A group of more than one same-shape sample joins one mode-grouped
        column walk (:func:`decode_images_fast`), bit-identical to the
        per-channel walk of a group of one by construction (the batched
        decoder runs the very same line kernel); mixed shapes decode
        sample by sample.
        """
        return self._decode_slots(
            blobs, device, one=_decode_delta, many=_decode_deltas,
            cost=delta_kernel_cost, post=func,
        )

    def declare_preprocessing(
        self,
        source,
        verify_reads: bool = False,
        cast=None,
        holdout: float | None = None,
        holdout_seed: int = 0,
    ):
        """Declare the DeepCAM chain as an optimizable graph.

        Normalization is fused into the *encoder*, so the native decode
        is the whole value path; ``cast`` optionally declares a dtype
        cast (e.g. FP32 for an FP32-only model) that fusion folds into
        the decode's post-transform, and ``holdout`` declares a
        training-split filter.  The filter is deliberately declared
        *after* decode — where a user naturally writes it — and the
        reordering pass hoists it before the read, so held-out samples
        cost no storage bytes and no decode cycles.
        """
        graph = super().declare_preprocessing(source, verify_reads)
        if cast is not None:
            graph.cast("cast", cast)
        if holdout:
            graph.filter(
                "holdout",
                holdout_filter(holdout, holdout_seed),
                selectivity=1.0 - holdout,
                reads=("index",),
            )
        return graph

    def measure(self, data: np.ndarray, label: np.ndarray) -> SampleCost:
        blob = self.encode(data, label)
        decoded_bytes = int(data.size) * 2  # FP16 tensor
        # The CPU decoder is leaner than the baseline's generic framework
        # path: it emits FP16 (half the write traffic) and touches encoded
        # bytes, not the full FP32 tensor — charged as 0.45 effective
        # elements per value.
        return self._gpu_cost(blob, decoded_bytes) or SampleCost(
            stored_bytes=len(blob),
            h2d_bytes=decoded_bytes,  # FP16 tensor crosses the link
            decoded_bytes=decoded_bytes,
            cpu_preprocess_elems=int(0.45 * data.size),
        )
