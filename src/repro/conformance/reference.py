"""Loop-based reference coders, written straight from the format docs.

The decoders deliberately share **no code** with the production
implementations: every byte is interpreted with scalar reads and explicit
Python loops following ``docs/format-delta.md`` and ``docs/format-lut.md``
line by line.  The delta encoder works one line at a time, segment by
segment, sharing only the bit-field helpers of :mod:`repro.util` with the
production encoder; the LUT encoder finds each region's groups with a
row-wise ``np.unique(axis=0)``, the sort the production encoder replaces
with one over packed keys.  Together they are the independent ground
truth the differential harness (:mod:`repro.conformance.differential`)
measures the production codec against — slow, but obviously correct.

Bit-exactness rules the docs pin down and these functions follow:

* delta reconstruction accumulates in FP32 ("software emulated addition"):
  each segment's running cumulative sum is an FP32 scalar chain, added to
  the FP32 running value, and the finished line is cast to FP16 once;
* a literal segment *replaces* the running value with its FP16 contents;
* the all-zero delta byte ``0x00`` decodes to exactly ``0.0``; any other
  byte decodes to ``±(1 + mant/2**mb) * 2**(emin + eoff)``;
* the LUT decode is one table lookup per voxel in C-order over the
  region, cast to the output dtype per element.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding.delta import (
    LINE_CONST,
    LINE_DELTA,
    LINE_RAW,
    LITERAL_SEGMENT,
    DeltaCodecConfig,
    DeltaEncodedImage,
)
from repro.core.encoding.lut import LutCodecConfig, LutEncodedSample, LutTable
from repro.util.bitpack import pack_fields, unpack_fields
from repro.util.fp16 import (
    decompose_float32,
    dequantize_magnitude,
    quantize_magnitude,
)

__all__ = [
    "decode_delta_reference",
    "decode_lut_reference",
    "encode_delta_reference",
    "encode_lut_reference",
]

_INT32_MIN = np.iinfo(np.int32).min


def _encode_delta_line(
    values: np.ndarray, cfg: DeltaCodecConfig
) -> bytes | None:
    """DELTA-encode one line; ``None`` when it must be stored RAW (too
    many literal segments, or no space savings)."""
    W = values.shape[0]
    diffs = values[1:] - values[:-1]
    ndiff = diffs.shape[0]
    bounds = [
        (s, min(s + cfg.block_size, ndiff))
        for s in range(0, ndiff, cfg.block_size)
    ]
    nseg = len(bounds)

    _, E, _ = decompose_float32(diffs)
    finite = np.isfinite(diffs)
    eoff_max = cfg.eoff_max

    descriptors = np.empty(nseg, dtype=np.int8)
    seg_bytes: list[np.ndarray | None] = [None] * nseg

    # Pass 1: exponent-window codability + quantization per segment.
    for k, (s, e) in enumerate(bounds):
        dE = E[s:e]
        nz = dE != _INT32_MIN
        if not finite[s:e].all():
            descriptors[k] = LITERAL_SEGMENT
            continue
        if not nz.any():
            # all-zero differences: emin is irrelevant, bytes are all 0x00
            descriptors[k] = 0
            seg_bytes[k] = np.zeros(e - s, dtype=np.uint8)
            continue
        # the 3-bit window hangs from the segment's largest difference;
        # differences below it flush to the reserved zero byte
        emax = int(dE[nz].max())
        emin = max(int(dE[nz].min()), emax - eoff_max)
        if emin < -127 or emin > 127:
            descriptors[k] = LITERAL_SEGMENT
            continue
        d = diffs[s:e].copy()
        d[dE < emin] = 0.0
        sign, eoff, mant = quantize_magnitude(
            d, emin, cfg.mantissa_bits, cfg.eoff_bits
        )
        descriptors[k] = emin
        seg_bytes[k] = pack_fields(sign, eoff, mant, cfg.mantissa_bits)

    # Pass 2: reconstruct and apply the quality gate per segment.
    absmax = float(np.max(np.abs(values))) if W else 0.0
    floor = np.float32(max(cfg.rel_floor * absmax, np.finfo(np.float32).tiny))

    def _literal_anchor(e: int) -> np.float32:
        # Literal segments store FP16; the decoder chains from the rounded
        # value, so the encoder's quality gate must do the same.
        return np.float32(np.float16(values[e]))

    prev = values[0]
    for k, (s, e) in enumerate(bounds):
        if descriptors[k] == LITERAL_SEGMENT:
            prev = _literal_anchor(e)
            continue
        if not cfg.quality_gate:
            continue
        sign, eoff, mant = unpack_fields(seg_bytes[k], cfg.mantissa_bits)
        rec = prev + np.cumsum(
            dequantize_magnitude(sign, eoff, mant, int(descriptors[k]),
                                 cfg.mantissa_bits),
            dtype=np.float32,
        )
        orig = values[s + 1 : e + 1]
        err = np.abs(rec - orig)
        denom = np.maximum(np.abs(orig), floor)
        if np.any(err / denom > cfg.rel_tol):
            descriptors[k] = LITERAL_SEGMENT
            prev = _literal_anchor(e)
        else:
            prev = rec[-1]

    n_literal = int(np.count_nonzero(descriptors == LITERAL_SEGMENT))
    if nseg and n_literal / nseg > cfg.max_literal_frac:
        return None

    parts = [np.float32(values[0]).tobytes(), descriptors.tobytes()]
    size = 4 + nseg
    for k, (s, e) in enumerate(bounds):
        if descriptors[k] == LITERAL_SEGMENT:
            lit = values[s + 1 : e + 1].astype(np.float16)
            parts.append(lit.tobytes())
            size += 2 * (e - s)
        else:
            parts.append(seg_bytes[k].tobytes())
            size += e - s
    if size >= 4 * W:  # no savings over a RAW FP32 line
        return None
    return b"".join(parts)


@np.errstate(over="ignore", invalid="ignore")  # FP32 semantics, as in production
def encode_delta_reference(
    image: np.ndarray, config: DeltaCodecConfig | None = None
) -> DeltaEncodedImage:
    """Encode one 2-D FP32 channel one line, one segment at a time.

    The encoder side of the reference: compare against
    :func:`repro.core.encoding.delta.encode_image`, which must emit the
    identical modes, offsets and payload bytes.
    """
    cfg = config or DeltaCodecConfig()
    image = np.ascontiguousarray(image, dtype=np.float32)
    if image.ndim != 2:
        raise ValueError(f"expected 2-D channel image, got shape {image.shape}")
    H, W = image.shape
    modes = np.empty(H, dtype=np.uint8)
    offsets = np.zeros(H + 1, dtype=np.uint64)
    chunks: list[bytes] = []
    pos = 0
    for i in range(H):
        line = image[i]
        if W == 1 or (np.isfinite(line).all() and np.all(line == line[0])):
            modes[i] = LINE_CONST
            blob = np.float32(line[0]).tobytes()
        else:
            payload = _encode_delta_line(line, cfg)
            if payload is None:
                modes[i] = LINE_RAW
                blob = line.tobytes()
            else:
                modes[i] = LINE_DELTA
                blob = payload
        chunks.append(blob)
        pos += len(blob)
        offsets[i + 1] = pos
    return DeltaEncodedImage(
        shape=(H, W),
        line_modes=modes,
        line_offsets=offsets,
        payload=b"".join(chunks),
        config=cfg,
    )


def _read_f32(blob: bytes, offset: int) -> np.float32:
    """One little-endian FP32 scalar at ``offset``."""
    return np.frombuffer(blob, dtype="<f4", count=1, offset=offset)[0]


def _read_f16(blob: bytes, offset: int) -> np.float16:
    """One little-endian FP16 scalar at ``offset``."""
    return np.frombuffer(blob, dtype="<f2", count=1, offset=offset)[0]


def _dequantize_byte(byte: int, emin: int, mantissa_bits: int) -> np.float32:
    """Decode one delta byte per the format table (doc: "Delta byte").

    Layout, MSB first: 1 sign bit | ``7 - mantissa_bits`` exponent-offset
    bits | ``mantissa_bits`` mantissa bits.  ``0x00`` is the reserved exact
    zero.
    """
    eoff_bits = 7 - mantissa_bits
    sign = byte >> 7
    eoff = (byte >> mantissa_bits) & ((1 << eoff_bits) - 1)
    mant = byte & ((1 << mantissa_bits) - 1)
    if sign == 0 and eoff == 0 and mant == 0:
        return np.float32(0.0)
    frac = np.float32(mant) / np.float32(1 << mantissa_bits)
    mag = np.ldexp(np.float32(1.0) + frac, emin + eoff).astype(np.float32)
    return np.float32(-mag) if sign else np.float32(mag)


@np.errstate(over="ignore")  # beyond FP16's range is ±inf, by the doc
def decode_delta_reference(enc: DeltaEncodedImage) -> np.ndarray:
    """Decode a delta-encoded channel to FP16, one value at a time.

    Independent re-implementation of ``docs/format-delta.md``; compare
    against :func:`repro.core.encoding.delta.decode_images`.
    """
    H, W = enc.shape
    cfg = enc.config
    block = cfg.block_size
    out = np.empty((H, W), dtype=np.float16)
    for i in range(H):
        blob = enc.line_payload(i)
        mode = int(enc.line_modes[i])
        if mode == LINE_CONST:
            # CONST: 4 bytes, one FP32 pivot repeated across the line
            pivot = np.float16(_read_f32(blob, 0))
            for j in range(W):
                out[i, j] = pivot
            continue
        if mode == LINE_RAW:
            # RAW: 4·W bytes of uncompressed FP32
            for j in range(W):
                out[i, j] = np.float16(_read_f32(blob, 4 * j))
            continue
        if mode != LINE_DELTA:
            raise ValueError(f"unknown line mode {mode} at line {i}")
        # DELTA: f32 head | i8 descriptor[nseg] | segment payloads
        ndiff = W - 1
        nseg = (ndiff + block - 1) // block
        line = np.empty(W, dtype=np.float32)
        line[0] = _read_f32(blob, 0)
        pos = 4 + nseg
        prev = np.float32(line[0])
        for k in range(nseg):
            s = k * block
            e = min(s + block, ndiff)
            blen = e - s
            desc = int(np.frombuffer(blob, dtype=np.int8, count=1,
                                     offset=4 + k)[0])
            if desc == LITERAL_SEGMENT:
                # literal: blen FP16 absolute values; re-anchors the sum
                for j in range(blen):
                    val = _read_f16(blob, pos + 2 * j)
                    line[s + 1 + j] = np.float32(val)
                    prev = np.float32(val)
                pos += 2 * blen
            else:
                # delta: blen single-byte quantized differences relative
                # to emin; cumulative FP32 sum added to the running value
                csum = np.float32(0.0)
                for j in range(blen):
                    d = _dequantize_byte(blob[pos + j], desc,
                                         cfg.mantissa_bits)
                    csum = np.float32(csum + d)
                    line[s + 1 + j] = np.float32(prev + csum)
                prev = np.float32(line[e])
                pos += blen
        for j in range(W):
            out[i, j] = np.float16(line[j])
    return out


def decode_lut_reference(
    enc: LutEncodedSample, dtype: np.dtype | str | None = None
) -> np.ndarray:
    """Decode a LUT-encoded sample one voxel at a time.

    Independent re-implementation of ``docs/format-lut.md``; compare
    against :func:`repro.core.encoding.lut.decode_sample`.
    """
    out_dtype = (
        np.dtype(dtype) if dtype is not None else enc.tables[0].values.dtype
    )
    C = enc.shape[0]
    out = np.empty(enc.shape, dtype=out_dtype)
    for t in enc.tables:
        region_shape = tuple(hi - lo for lo, hi in t.region)
        n_voxels = 1
        for n in region_shape:
            n_voxels *= n
        if int(t.keys.size) != n_voxels:
            raise ValueError(
                f"table covers {n_voxels} voxels but has {t.keys.size} keys"
            )
        # keys are laid out in C-order over the region (doc: "group index
        # per voxel of the region, C-order")
        for flat, coord in enumerate(np.ndindex(*region_shape)):
            key = int(t.keys[flat])
            if key >= t.n_groups:
                raise ValueError(
                    f"key {key} out of range for {t.n_groups} groups"
                )
            group = t.values[key]
            dest = tuple(lo + c for (lo, _), c in zip(t.region, coord))
            for c in range(C):
                out[(c, *dest)] = group[c]
    return out


def encode_lut_reference(
    sample: np.ndarray, config: LutCodecConfig | None = None
) -> LutEncodedSample:
    """Encode a LUT sample with a row-wise ``np.unique`` per region.

    Follows ``docs/format-lut.md``: the unique C-groups of a region,
    sorted lexicographically, index it with the narrowest key width; a
    region over ``max_groups_per_table`` groups splits in half along its
    longest axis, first half first.  Compare against
    :func:`repro.core.encoding.lut.encode_sample`.
    """
    cfg = config or LutCodecConfig()
    sample = np.asarray(sample)
    C = sample.shape[0]
    tables: list[LutTable] = []

    def encode(region):
        sub = sample[(slice(None),) + tuple(slice(*r) for r in region)]
        groups = np.ascontiguousarray(np.moveaxis(sub, 0, -1)).reshape(-1, C)
        values, keys = np.unique(groups, axis=0, return_inverse=True)
        if values.shape[0] <= cfg.max_groups_per_table:
            width = np.uint8 if values.shape[0] <= 256 else np.uint16
            tables.append(LutTable(region, keys.reshape(-1).astype(width),
                                   values))
            return
        axis = int(np.argmax([hi - lo for lo, hi in region]))
        lo, hi = region[axis]
        if hi - lo < 2:
            raise ValueError("region not splittable further")
        mid = (lo + hi) // 2
        for half in ((lo, mid), (mid, hi)):
            encode(tuple(half if a == axis else r
                         for a, r in enumerate(region)))

    encode(tuple((0, n) for n in sample.shape[1:]))
    return LutEncodedSample(shape=tuple(sample.shape), tables=tables,
                            dtype=sample.dtype)
