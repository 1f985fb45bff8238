"""Automatic codec selection for new scientific workloads.

The paper's conclusion: "our approach can be used as a template to optimize
a wide variety of SciML codes."  :class:`AutoPlugin` operationalizes the
template — it runs the paper's §V content analysis on a representative
sample and picks the representation:

* **LUT** when the sample is a low-cardinality (quantized/count-like)
  field whose unique channel-groups fit the key budget — the CosmoFlow
  situation;
* **delta** when the sample is a float field that is smooth along its last
  axis — the DeepCAM situation;
* **raw** otherwise (dense high-entropy data the paper would leave alone).

Decoding dispatches on the container's codec tag, so a mixed dataset can
carry per-sample representations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.encoding import container
from repro.core.encoding.delta import (
    DeltaCodecConfig,
    decode_images,
    encode_image,
)
from repro.core.encoding.lut import (
    LutCodecConfig,
    decode_sample,
    encode_sample,
    unique_groups,
)
from repro.core.plugins.base import SampleCost, SamplePlugin
from repro.core.plugins.cosmoflow import lut_kernel_cost
from repro.core.plugins.deepcam import delta_kernel_cost

__all__ = ["AutoPlugin", "CodecChoice", "choose_codec"]

_MIN_LUT_RATIO = 1.5  # estimated compression required to pick LUT
_MIN_DELTA_RATIO = 1.3  # trial-encode compression required to pick delta


@dataclass(frozen=True)
class CodecChoice:
    """Outcome of the content analysis on a representative sample."""

    codec: str  # "lut" | "delta" | "raw"
    reason: str


def choose_codec(sample: np.ndarray) -> CodecChoice:
    """Apply the paper's §V analysis to pick a representation."""
    sample = np.asarray(sample)
    if sample.ndim < 2:
        return CodecChoice("raw", "needs channel-first data with >=1 "
                                  "spatial axis")
    C = sample.shape[0]
    flat = sample.reshape(C, -1)
    n_voxels = flat.shape[1]

    # LUT test: integer-like values whose channel-groups are few
    int_like = np.issubdtype(sample.dtype, np.integer) or bool(
        np.all(np.mod(flat, 1) == 0)
    )
    if int_like:
        G = unique_groups(flat)[0].shape[0]
        if G <= 1 << 16:
            key_width = 1 if G <= 256 else 2
            est = n_voxels * key_width + G * C * sample.dtype.itemsize
            raw = n_voxels * C * sample.dtype.itemsize
            if raw / est >= _MIN_LUT_RATIO:
                return CodecChoice(
                    "lut",
                    f"{G} unique groups; estimated {raw / est:.1f}x "
                    "compression with lookup tables",
                )

    # delta test: trial-encode the channels and check the achieved ratio
    # (line-level smoothness heuristics under-estimate the codec, whose
    # per-segment exponent windows and literal fallbacks absorb local
    # roughness)
    if np.issubdtype(sample.dtype, np.floating) and sample.ndim == 3:
        data32 = sample.astype(np.float32)
        raw = enc = 0
        for ch in data32:
            std = float(ch.std()) or 1.0
            norm = ((ch - ch.mean()) / std).astype(np.float32)
            e = encode_image(norm)
            raw += norm.nbytes
            enc += e.nbytes
        ratio = raw / enc
        if ratio >= _MIN_DELTA_RATIO:
            return CodecChoice(
                "delta", f"trial encode compresses {ratio:.1f}x"
            )
        return CodecChoice(
            "raw", f"trial encode compresses only {ratio:.2f}x"
        )
    return CodecChoice("raw", "no codec matched the sample's structure")


class AutoPlugin(SamplePlugin):
    """Representation-agnostic plugin: analyze, encode, dispatch on decode.

    ``normalize`` standardizes float channels before delta encoding (as the
    DeepCAM plugin does); LUT samples are stored as-is.  Decoded tensors
    are FP16 for encoded representations and the raw dtype otherwise.
    """

    name = "auto"

    def __init__(
        self,
        placement: str = "cpu",
        delta_config: DeltaCodecConfig | None = None,
        lut_config: LutCodecConfig | None = None,
    ) -> None:
        if placement not in ("cpu", "gpu"):
            raise ValueError("placement must be 'cpu' or 'gpu'")
        self.placement = placement
        self.delta_config = delta_config or DeltaCodecConfig()
        self.lut_config = lut_config or LutCodecConfig()
        self.last_choice: CodecChoice | None = None

    def encode(self, data: np.ndarray, label: np.ndarray) -> bytes:
        choice = choose_codec(data)
        self.last_choice = choice
        if choice.codec == "lut":
            enc = encode_sample(
                np.ascontiguousarray(data, dtype=np.int16), self.lut_config
            )
            return container.pack_lut_sample(
                enc, label, extra={"auto_reason": choice.reason}
            )
        if choice.codec == "delta":
            data32 = np.ascontiguousarray(data, dtype=np.float32)
            C = data32.shape[0]
            mean = data32.reshape(C, -1).mean(axis=1)
            std = data32.reshape(C, -1).std(axis=1)
            std = np.where(std < 1e-12, 1.0, std)
            bc = (slice(None),) + (None,) * (data32.ndim - 1)
            norm = (data32 - mean[bc]) / std[bc]
            channels = [encode_image(ch, self.delta_config) for ch in norm]
            return container.pack_delta_sample(
                channels, label,
                extra={"auto_reason": choice.reason,
                       "mean": mean.tolist(), "std": std.tolist()},
            )
        return container.pack_raw_sample(
            np.ascontiguousarray(data), label,
            extra={"auto_reason": choice.reason},
        )

    def _unpack(self, blob: bytes):
        codec, payload, label, _ = container.unpack_sample(blob)
        return (codec, payload), label

    def decode_group(self, blobs, func=None, device=None) -> list:
        """Decode each sample by its container's codec; ``func`` runs after."""
        return self._decode_slots(
            blobs, device, one=_decode_any, cost=_kernel_cost, post=func
        )

    def measure(self, data: np.ndarray, label: np.ndarray) -> SampleCost:
        blob = self.encode(data, label)
        codec = container.peek_codec(blob)
        decoded_bytes = (
            int(data.size) * 2 if codec in ("lut", "delta")
            else int(np.ascontiguousarray(data).nbytes)
        )
        return self._gpu_cost(blob, decoded_bytes) or SampleCost(
            stored_bytes=len(blob), h2d_bytes=decoded_bytes,
            decoded_bytes=decoded_bytes,
            cpu_preprocess_elems=0 if codec == "raw" else int(data.size),
        )


def _decode_any(unpacked) -> np.ndarray:
    """FP16 for the encoded representations, the stored array for raw."""
    codec, payload = unpacked
    if codec == "lut":
        return decode_sample(payload, dtype=np.float16)
    if codec == "delta":
        return decode_images(payload)
    return payload


def _kernel_cost(unpacked, out: np.ndarray, spec) -> list:
    """The codec's kernel cost; a raw payload costs the device nothing."""
    codec, payload = unpacked
    if codec == "lut":
        return lut_kernel_cost(payload, out)
    if codec == "delta":
        return delta_kernel_cost(payload, out, spec)
    return []
