"""Loop-based reference decoders, written straight from the format docs.

These decoders deliberately share **no code** with the production
implementations: every byte is interpreted with scalar reads and explicit
Python loops following ``docs/format-delta.md`` and ``docs/format-lut.md``
line by line.  They are the independent ground truth the differential
harness (:mod:`repro.conformance.differential`) measures the loop and
vectorized decoders against — slow, but obviously correct.

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
    DeltaEncodedImage,
)
from repro.core.encoding.lut import LutEncodedSample

__all__ = ["decode_delta_reference", "decode_lut_reference"]


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


def decode_delta_reference(enc: DeltaEncodedImage) -> np.ndarray:
    """Decode a delta-encoded channel to FP16, one value at a time.

    Independent re-implementation of ``docs/format-delta.md``; compare
    against :func:`repro.core.encoding.delta.decode_image`.
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
