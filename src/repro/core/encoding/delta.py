"""DeepCAM differential line codec (paper §V-A).

DeepCAM samples are 16-channel 2-D climate fields whose values change
smoothly along the x-direction (latitude).  The codec exploits this by
encoding each image *line* independently:

* **CONST** — every value on the line is identical: store one FP32 pivot
  (the paper's "special encoding for the case where all neighbouring values
  are similar").
* **DELTA** — store the line's head (pivot) FP32 value, then the sequence of
  neighbour differences.  Differences are grouped into fixed-width *segments*
  (``block_size`` diffs); each segment records the minimum exponent of its
  non-zero differences and every difference as a single byte —
  1 sign bit, 3 exponent-offset bits relative to the segment minimum, and a
  4-bit mantissa.  Segments whose exponent spread exceeds the 3-bit window,
  or whose reconstruction error fails the quality gate, fall back to
  **literal** segments holding raw FP16 values (which also re-anchor the
  running sum, bounding drift).
* **RAW** — lines with abrupt transitions (many literal segments, or where
  encoding saves no space) are kept uncompressed in FP32, because abrupt
  changes "potentially carry interesting climate phenomena".

Per-line metadata (mode + byte offset) permits *independent decoding of
lines*, which is what makes the decoder efficient on accelerator
architectures: every line (or warp) proceeds with no inter-line dependency.

Decoding reconstructs in FP32 ("software emulated addition") and emits FP16
for the mixed-precision training pipeline; the scheme is slightly lossy, and
like the paper we observe a small share of values — those near zero, in
denormal territory — with >10 % relative error.  Values beyond FP16's range
become ±inf, the documented FP16 output.

Both directions exploit that every line of an image shares one segment
grid.  :func:`encode_image` runs the exponent-window analysis across the
whole image and the quality gate one segment column at a time;
:func:`decode_images` decodes every line of every channel of a sample in
one pass — CONST and RAW lines in two vector ops, DELTA lines one segment
column at a time — mirroring the GPU schedule the paper describes
(independent lines in parallel, a line's segments in sequence).  The
line-at-a-time reference coders in :mod:`repro.conformance.reference` pin
both bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.bitpack import pack_fields, unpack_fields
from repro.util.fp16 import (
    decompose_float32,
    dequantize_magnitude,
    quantize_magnitude,
)

__all__ = [
    "DeltaCodecConfig",
    "DeltaEncodedImage",
    "LINE_CONST",
    "LINE_DELTA",
    "LINE_RAW",
    "LITERAL_SEGMENT",
    "encode_image",
    "decode_images",
]

#: line modes stored in the per-line metadata byte
LINE_CONST = 0
LINE_DELTA = 1
LINE_RAW = 2

#: segment-descriptor sentinel marking a literal (uncompressed FP16) segment
LITERAL_SEGMENT = -128

_INT32_MIN = np.iinfo(np.int32).min
#: emin placeholder for segments whose bytes will never be used; large
#: enough that every difference flushes to the reserved zero byte
_UNUSED_EMIN = 127


@dataclass(frozen=True)
class DeltaCodecConfig:
    """Tunable parameters of the differential codec.

    Attributes
    ----------
    block_size:
        Differences per segment.  Shorter segments anchor the running sum
        more often (less drift) at the cost of one descriptor byte each.
    rel_tol:
        Maximum tolerated relative reconstruction error for values whose
        magnitude exceeds ``rel_floor`` times the line's absolute maximum.
        Segments violating the gate are stored literally.
    rel_floor:
        Fraction of the line's absolute maximum below which values are
        considered "near zero" and exempt from the relative-error gate
        (these are exactly the values the paper reports may exceed 10 %
        error due to denormalization).
    max_literal_frac:
        If more than this fraction of a line's segments would be literal,
        the line is deemed to contain abrupt transitions and is stored RAW.
    mantissa_bits:
        Mantissa bits per encoded difference; the exponent-offset window
        gets the remaining ``7 - mantissa_bits`` bits.  The paper uses 4/3
        ("an arbitrary number of bits, 3 in our case"); other splits are
        available for the precision-vs-window ablation.
    quality_gate:
        When False, skip the per-segment reconstruction check (pass 2) and
        keep every codable segment — the paper's open-loop behaviour, whose
        error profile (a small tail of >10 % errors near zero) the claims
        bench reproduces.
    """

    block_size: int = 64
    rel_tol: float = 0.05
    rel_floor: float = 0.01
    max_literal_frac: float = 0.5
    mantissa_bits: int = 4
    quality_gate: bool = True

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if not (0 < self.rel_tol < 1):
            raise ValueError("rel_tol must be in (0, 1)")
        if not (0 <= self.rel_floor < 1):
            raise ValueError("rel_floor must be in [0, 1)")
        if not (0 < self.max_literal_frac <= 1):
            raise ValueError("max_literal_frac must be in (0, 1]")
        if not 1 <= self.mantissa_bits <= 6:
            raise ValueError("mantissa_bits must be in [1, 6]")

    @property
    def eoff_bits(self) -> int:
        """Exponent-offset bits per difference (the 3-bit window)."""
        return 7 - self.mantissa_bits

    @property
    def eoff_max(self) -> int:
        return (1 << self.eoff_bits) - 1


@dataclass
class DeltaEncodedImage:
    """One encoded 2-D channel.

    ``line_offsets[i] : line_offsets[i+1]`` delimits line *i*'s payload, so
    any line decodes independently of the others.
    """

    shape: tuple[int, int]
    line_modes: np.ndarray  # uint8[H]
    line_offsets: np.ndarray  # uint64[H + 1]
    payload: bytes
    config: DeltaCodecConfig = field(default_factory=DeltaCodecConfig)

    @property
    def nbytes(self) -> int:
        """Total encoded size including per-line metadata."""
        return len(self.payload) + self.line_modes.nbytes + self.line_offsets.nbytes

    def line_payload(self, i: int) -> bytes:
        lo, hi = int(self.line_offsets[i]), int(self.line_offsets[i + 1])
        return self.payload[lo:hi]


def _segment_bounds(ndiff: int, block_size: int) -> list[tuple[int, int]]:
    """[(start, stop), ...] covering ``range(ndiff)`` in fixed blocks."""
    return [(s, min(s + block_size, ndiff)) for s in range(0, ndiff, block_size)]


#: the codec runs FP32 arithmetic on purpose: inf - inf is NaN, and a value
#: beyond FP16's range becomes ±inf — documented results, not warnings
_FP_SEMANTICS = np.errstate(over="ignore", invalid="ignore")


@_FP_SEMANTICS
def encode_image(
    image: np.ndarray, config: DeltaCodecConfig | None = None
) -> DeltaEncodedImage:
    """Encode one 2-D FP32 channel (H lines of W values).

    Lines are classified CONST / DELTA / RAW and serialized back-to-back;
    the offset table makes each line independently decodable.  Pass 1
    (exponent window + quantization) runs over the whole image, pass 2
    (the quality gate) over all lines one segment column at a time; only
    the final per-line assembly is a Python loop.
    """
    cfg = config or DeltaCodecConfig()
    image = np.ascontiguousarray(image, dtype=np.float32)
    if image.ndim != 2:
        raise ValueError(f"expected 2-D channel image, got shape {image.shape}")
    H, W = image.shape

    finite_rows = np.isfinite(image).all(axis=1)
    if W == 1:
        const_rows = np.ones(H, dtype=bool)
    else:
        const_rows = finite_rows & (image == image[:, :1]).all(axis=1)

    if W >= 2:
        diffs = image[:, 1:] - image[:, :-1]
        ndiff = W - 1
        bounds = _segment_bounds(ndiff, cfg.block_size)
        nseg = len(bounds)
        _, E, _ = decompose_float32(diffs)
        finite = np.isfinite(diffs)

        # --- pass 1, vectorized over (line, segment) ---------------------
        neg_inf = np.int64(_INT32_MIN)
        descriptors = np.empty((H, nseg), dtype=np.int16)
        emin_pos = np.full((H, ndiff), _UNUSED_EMIN, dtype=np.int32)
        for k, (s, e) in enumerate(bounds):
            dE = E[:, s:e].astype(np.int64)
            nz = dE != neg_inf
            any_nz = nz.any(axis=1)
            seg_finite = finite[:, s:e].all(axis=1)
            emax = np.where(nz, dE, neg_inf).max(axis=1)
            emin_raw = np.where(nz, dE, np.int64(2**31 - 1)).min(axis=1)
            emin = np.maximum(emin_raw, emax - cfg.eoff_max).astype(np.int32)
            in_range = (emin >= -127) & (emin <= 127)

            desc = np.full(H, LITERAL_SEGMENT, dtype=np.int16)
            codable = seg_finite & any_nz & in_range
            desc[codable] = emin[codable]
            all_zero = seg_finite & ~any_nz
            desc[all_zero] = 0
            descriptors[:, k] = desc
            emin_pos[codable, s:e] = emin[codable, None]

        # Anchor each 3-bit exponent window at the segment's LARGEST
        # difference and flush differences more than 8 binades below it to
        # the reserved zero byte: they are measurement noise relative to
        # the segment's real variation (the paper's "effectively removes
        # noises resulting from sensor measurement of smooth areas"), and
        # the quality gate in pass 2 still protects against real damage.
        # Unused (literal/zero) segments flush entirely via _UNUSED_EMIN.
        d = diffs.copy()
        d[~np.isfinite(d)] = 0.0
        d[E < emin_pos] = 0.0
        sign, eoff, mant = quantize_magnitude(
            d, emin_pos, cfg.mantissa_bits, cfg.eoff_bits
        )
        packed = pack_fields(sign, eoff, mant, cfg.mantissa_bits)

        # --- pass 2, the quality gate: one segment column at a time ------
        if cfg.quality_gate:
            absmax = np.abs(image).max(axis=1)
            floor = np.maximum(
                cfg.rel_floor * absmax, np.finfo(np.float32).tiny
            ).astype(np.float32)
            dq = dequantize_magnitude(
                sign, eoff, mant, emin_pos, cfg.mantissa_bits
            )
            prev = image[:, 0].copy()
            for k, (s, e) in enumerate(bounds):
                is_delta = descriptors[:, k] != LITERAL_SEGMENT
                rec = prev[:, None] + np.cumsum(
                    dq[:, s:e], axis=1, dtype=np.float32
                )
                orig = image[:, s + 1 : e + 1]
                err = np.abs(rec - orig)
                bad = (
                    err / np.maximum(np.abs(orig), floor[:, None])
                    > cfg.rel_tol
                ).any(axis=1)
                descriptors[is_delta & bad, k] = LITERAL_SEGMENT
                is_delta = descriptors[:, k] != LITERAL_SEGMENT
                # literal segments store FP16; the decoder chains from the
                # rounded value, so the gate must do the same
                anchor = np.float32(np.float16(image[:, e])).astype(np.float32)
                prev = np.where(is_delta, rec[:, -1], anchor)
    else:
        bounds = []
        nseg = 0
        descriptors = np.empty((H, 0), dtype=np.int16)
        packed = np.empty((H, 0), dtype=np.uint8)

    # --- per-line assembly (cheap slicing only) ---------------------------
    n_literal = (
        (descriptors == LITERAL_SEGMENT).sum(axis=1) if nseg else
        np.zeros(H, dtype=np.int64)
    )
    modes = np.empty(H, dtype=np.uint8)
    offsets = np.zeros(H + 1, dtype=np.uint64)
    chunks: list[bytes] = []
    pos = 0
    image16 = image.astype(np.float16)
    for i in range(H):
        if const_rows[i]:
            modes[i] = LINE_CONST
            blob = np.float32(image[i, 0]).tobytes()
        else:
            desc_i = descriptors[i]
            lit = int(n_literal[i])
            size = 4 + nseg
            for k, (s, e) in enumerate(bounds):
                size += 2 * (e - s) if desc_i[k] == LITERAL_SEGMENT else e - s
            if (nseg and lit / nseg > cfg.max_literal_frac) or size >= 4 * W:
                modes[i] = LINE_RAW
                blob = image[i].tobytes()
            else:
                modes[i] = LINE_DELTA
                parts = [np.float32(image[i, 0]).tobytes(),
                         desc_i.astype(np.int8).tobytes()]
                for k, (s, e) in enumerate(bounds):
                    if desc_i[k] == LITERAL_SEGMENT:
                        parts.append(image16[i, s + 1 : e + 1].tobytes())
                    else:
                        parts.append(packed[i, s:e].tobytes())
                blob = b"".join(parts)
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


@_FP_SEMANTICS
def _decode_lines(
    buf: np.ndarray,
    offsets: np.ndarray,
    modes: np.ndarray,
    W: int,
    cfg: DeltaCodecConfig,
    out: np.ndarray,
) -> None:
    """Decode ``len(modes)`` independent lines out of one byte buffer.

    Line ``i``'s record is ``buf[offsets[i]:offsets[i + 1]]``; its length
    must be exactly what its mode and segment descriptors call for, or
    ``ValueError`` is raised before anything is read past it.  ``out`` is
    the ``(L, W)`` float16 destination; every row is written.
    """
    starts = offsets[:-1]
    lengths = np.diff(offsets)
    ndiff = W - 1
    bounds = _segment_bounds(ndiff, cfg.block_size)
    nseg = len(bounds)
    need = np.where(
        modes == LINE_CONST, 4, np.where(modes == LINE_RAW, 4 * W, 4 + nseg)
    )
    exact = modes != LINE_DELTA
    if (lengths < need).any() or (lengths[exact] != need[exact]).any():
        raise ValueError("line record length does not match its mode")

    # CONST lines: one FP32 head each
    const_rows = np.flatnonzero(modes == LINE_CONST)
    if const_rows.size:
        idx = starts[const_rows, None] + np.arange(4)
        heads = buf[idx].copy().view(np.float32).reshape(-1)
        out[const_rows] = heads[:, None].astype(np.float16)

    # RAW lines: W FP32 values each
    raw_rows = np.flatnonzero(modes == LINE_RAW)
    if raw_rows.size:
        idx = starts[raw_rows, None] + np.arange(4 * W)
        vals = buf[idx].copy().view(np.float32).reshape(-1, W)
        out[raw_rows] = vals.astype(np.float16)

    # DELTA lines: shared segment grid, per-column vector walk
    delta_rows = np.flatnonzero(modes == LINE_DELTA)
    if delta_rows.size == 0:
        return
    L = delta_rows.size
    base = starts[delta_rows]

    heads = buf[base[:, None] + np.arange(4)].copy().view(np.float32)
    heads = heads.reshape(-1)
    descs = buf[base[:, None] + 4 + np.arange(nseg)].view(np.int8).copy()
    descs = descs.reshape(L, nseg).astype(np.int16)
    is_lit = descs == LITERAL_SEGMENT

    # per-line byte offset of each segment's payload
    blens = np.array([e - s for s, e in bounds], dtype=np.int64)
    seg_sizes = np.where(is_lit, 2 * blens[None, :], blens[None, :])
    if (4 + nseg + seg_sizes.sum(axis=1) != lengths[delta_rows]).any():
        raise ValueError("line record length does not match its segments")
    seg_offs = 4 + nseg + np.cumsum(seg_sizes, axis=1) - seg_sizes

    line = np.empty((L, W), dtype=np.float32)
    line[:, 0] = heads
    prev = heads.copy()
    for k, (s, e) in enumerate(bounds):
        blen = e - s
        off = base + seg_offs[:, k]
        lit = is_lit[:, k]
        vals = np.empty((L, blen), dtype=np.float32)
        if lit.any():
            lidx = off[lit, None] + np.arange(2 * blen)
            lit_vals = buf[lidx].copy().view(np.float16).reshape(-1, blen)
            vals[lit] = lit_vals.astype(np.float32)
        ndl = ~lit
        if ndl.any():
            didx = off[ndl, None] + np.arange(blen)
            packed = buf[didx]
            sign, eoff, mant = unpack_fields(packed, cfg.mantissa_bits)
            emin = descs[ndl, k].astype(np.int32)[:, None]
            d = dequantize_magnitude(sign, eoff, mant, emin,
                                     cfg.mantissa_bits)
            vals[ndl] = prev[ndl, None] + np.cumsum(d, axis=1,
                                                    dtype=np.float32)
        line[:, s + 1 : e + 1] = vals
        prev = vals[:, -1].copy()
    out[delta_rows] = line.astype(np.float16)


def decode_images(
    encs, out: np.ndarray | None = None
) -> np.ndarray:
    """Decode the channels of one sample to ``float16[N, H, W]``.

    All ``N`` images must share one shape and config (a container's
    channels always do).  Their payloads join one buffer and every line of
    every channel runs through one :func:`_decode_lines` pass, written
    straight into ``out`` — a C-contiguous ``float16[N, H, W]`` the caller
    may supply, or a fresh one.  A malformed line table (a missing entry,
    an unknown mode, offsets that do not partition the payload, a record
    of the wrong length) raises ``ValueError``; no line is ever left
    undecoded.
    """
    encs = list(encs)
    if not encs:
        raise ValueError("decode_images needs at least one image")
    H, W = encs[0].shape
    cfg = encs[0].config
    for enc in encs:
        if enc.shape != (H, W) or enc.config != cfg:
            raise ValueError("decode_images needs one shared shape and config")
    N = len(encs)
    if out is None:
        out = np.empty((N, H, W), dtype=np.float16)
    elif (out.shape != (N, H, W) or out.dtype != np.float16
          or not out.flags.c_contiguous):
        raise ValueError(
            "out must be a C-contiguous float16 array of the decoded shape"
        )
    if any(enc.line_modes.shape != (H,)
           or enc.line_offsets.shape != (H + 1,) for enc in encs):
        raise ValueError(f"line table does not have one entry per line ({H})")
    modes = np.concatenate([enc.line_modes for enc in encs])
    bad = np.flatnonzero(
        (modes != LINE_CONST) & (modes != LINE_DELTA) & (modes != LINE_RAW)
    )
    if bad.size:
        c, i = divmod(int(bad[0]), H)
        raise ValueError(
            f"unknown line mode {int(modes[bad[0]])} at line {i} of image {c}"
        )
    # one offset table over the joined payloads: each image's offsets must
    # run from 0 up to its payload's end, then shift by the bytes before it
    offs = np.stack([enc.line_offsets for enc in encs]).astype(np.int64)
    sizes = np.array([len(enc.payload) for enc in encs], dtype=np.int64)
    if ((offs[:, 0] != 0).any() or (np.diff(offs, axis=1) < 0).any()
            or (offs[:, -1] != sizes).any()):
        raise ValueError("line offsets do not partition the payload")
    bases = np.concatenate([[0], np.cumsum(sizes)])
    offsets = np.append((offs[:, :-1] + bases[:-1, None]).ravel(), bases[-1])
    buf = np.frombuffer(b"".join(enc.payload for enc in encs), dtype=np.uint8)
    _decode_lines(buf, offsets, modes, W, cfg, out.reshape(N * H, W))
    return out
