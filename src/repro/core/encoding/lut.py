"""CosmoFlow lookup-table codec (paper §V-B).

A CosmoFlow sample is a 3-D histogram of dark-matter particle counts at four
redshifts: ``counts[4, D, D, D]``.  The paper's analysis (our Figure 5
harness verifies it on the synthetic data) found that

* the number of *unique values* per sample is only a few hundred, with a
  power-law frequency distribution, and
* the four redshift values at a voxel are highly coupled, so the number of
  unique *groups of four* is only a few tens of thousands — far below the
  permutation count — and therefore indexable with 16-bit integers.

Encoding therefore stores a per-sample lookup table of unique 4-groups plus
one small key per voxel (1 byte when ≤256 groups, 2 bytes otherwise — the
paper uses "keys of width 1 or 2 bytes").  The encoder finds the unique
groups with one 1-D sort over a packed ``uint64`` key per voxel
(:func:`unique_groups`), in the same order as a row-wise ``np.unique``.
Decoding is a single gather — embarrassingly parallel and coalesced, which
is what makes it efficient on accelerators, unlike gzip: each table row is
one ``C·itemsize``-byte record, gathered once per voxel and written
channel-first straight into the output.

The decisive fusion optimization: expensive preprocessing operators such as
CosmoFlow's ``log`` are applied to the *table* (hundreds of entries) rather
than the expanded volume (millions of voxels), i.e. *before* decompression —
"applying the log operator before decompression is advantageous".

Volumes larger than the table limit are split into sub-blocks with one table
each ("for larger than 128³ decompositions, multiple lookup tables are
required").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "LutCodecConfig",
    "LutEncodedSample",
    "LutTable",
    "encode_sample",
    "decode_sample",
    "apply_to_tables",
    "unique_groups",
]

#: hard ceiling on table entries indexable by the widest supported key
_MAX_GROUPS = 1 << 16


@dataclass(frozen=True)
class LutCodecConfig:
    """Parameters of the lookup-table codec.

    Attributes
    ----------
    max_groups_per_table:
        Upper bound on unique groups per lookup table.  When a (sub-)volume
        exceeds it, the volume is recursively split along its longest spatial
        axis and each half gets its own table.
    value_dtype:
        On-disk dtype of table entries before preprocessing fusion.  The
        original data are particle counts; int16 matches the distributed
        TFRecord representation the 4× compression factor is measured
        against.
    """

    max_groups_per_table: int = _MAX_GROUPS
    value_dtype: str = "int16"

    def __post_init__(self) -> None:
        if not 1 <= self.max_groups_per_table <= _MAX_GROUPS:
            raise ValueError(
                f"max_groups_per_table must be in [1, {_MAX_GROUPS}]"
            )


@dataclass
class LutTable:
    """One lookup table covering a contiguous sub-volume.

    ``region`` is the (start, stop) slice per spatial axis; ``keys`` holds
    one key per voxel of the region (C-order) and ``values`` the table of
    unique groups, shape ``[n_groups, n_channels]``.
    """

    region: tuple[tuple[int, int], ...]
    keys: np.ndarray  # uint8 or uint16, flat
    values: np.ndarray  # [n_groups, C]

    @property
    def key_width(self) -> int:
        return self.keys.dtype.itemsize

    @property
    def n_groups(self) -> int:
        return self.values.shape[0]

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.values.nbytes


@dataclass
class LutEncodedSample:
    """A fully encoded CosmoFlow sample: one or more tables + metadata."""

    shape: tuple[int, ...]  # (C, *spatial)
    tables: list[LutTable]
    dtype: np.dtype = field(default_factory=lambda: np.dtype("int16"))

    @property
    def nbytes(self) -> int:
        # per-table region metadata: 2 ints per spatial axis (8 bytes each)
        meta = sum(16 * len(t.region) for t in self.tables)
        return sum(t.nbytes for t in self.tables) + meta

    @property
    def n_groups_total(self) -> int:
        return sum(t.n_groups for t in self.tables)


def _key_dtype(n_groups: int) -> np.dtype:
    """Narrowest supported key dtype for ``n_groups`` table entries."""
    return np.dtype(np.uint8) if n_groups <= 256 else np.dtype(np.uint16)


def unique_groups(sample: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique C-groups of ``sample[C, ...]`` in ``np.unique(axis=0)`` order.

    A group is the C-vector at one position (C-order).  When the C lanes
    of a native-endian integer dtype fit in 64 bits, each group is packed
    into one ``uint64`` — channel 0 in the most significant lane, signed
    lanes biased by ``2**(bits-1)`` so the keys sort like the rows — and
    a 1-D ``np.unique`` over the keys gives the same sorted table and
    inverse as the row ``np.unique`` at a fraction of its cost.  Returns
    ``values[K, C]`` and the flat index of each group in ``values``.
    """
    C, dtype = sample.shape[0], sample.dtype
    bits = 8 * dtype.itemsize
    if dtype.kind not in "iu" or not dtype.isnative or C * bits > 64:
        groups = np.ascontiguousarray(np.moveaxis(sample, 0, -1))
        values, inverse = np.unique(groups.reshape(-1, C), axis=0,
                                    return_inverse=True)
        return values, inverse.reshape(-1)
    lane = np.dtype(f"u{dtype.itemsize}")
    bias = lane.type(1 << (bits - 1) if dtype.kind == "i" else 0)
    packed = np.zeros(sample[0].size, dtype=np.uint64)
    for c in range(C):
        lanes = (sample[c].view(lane) ^ bias).reshape(-1)
        packed |= lanes.astype(np.uint64) << np.uint64(bits * (C - 1 - c))
    keys, inverse = np.unique(packed, return_inverse=True)
    values = np.empty((keys.size, C), dtype=dtype)
    for c in range(C):
        lanes = (keys >> np.uint64(bits * (C - 1 - c))).astype(lane)
        values[:, c] = (lanes ^ bias).view(dtype)
    return values, inverse


def _encode_region(
    sample: np.ndarray,
    region: tuple[tuple[int, int], ...],
    cfg: LutCodecConfig,
    out: list[LutTable],
) -> None:
    """Encode one sub-volume, splitting recursively if its table overflows."""
    slices = (slice(None),) + tuple(slice(lo, hi) for lo, hi in region)
    values, keys = unique_groups(sample[slices])
    if values.shape[0] > cfg.max_groups_per_table:
        # Split along the longest spatial axis of the region.
        lengths = [hi - lo for lo, hi in region]
        axis = int(np.argmax(lengths))
        lo, hi = region[axis]
        if hi - lo < 2:
            raise ValueError(
                "region not splittable further but table exceeds "
                f"{cfg.max_groups_per_table} groups"
            )
        mid = (lo + hi) // 2
        left = tuple((lo, mid) if i == axis else r for i, r in enumerate(region))
        right = tuple((mid, hi) if i == axis else r for i, r in enumerate(region))
        _encode_region(sample, left, cfg, out)
        _encode_region(sample, right, cfg, out)
        return
    out.append(
        LutTable(
            region=region,
            keys=keys.astype(_key_dtype(values.shape[0])),
            values=values,
        )
    )


def encode_sample(
    sample: np.ndarray, config: LutCodecConfig | None = None
) -> LutEncodedSample:
    """Encode ``sample[C, *spatial]`` (channel-first particle counts).

    Channels correspond to the four redshifts; a "group" is the C-vector of
    values at one voxel.
    """
    cfg = config or LutCodecConfig()
    sample = np.asarray(sample)
    if sample.ndim < 2:
        raise ValueError("sample must be channel-first with >=1 spatial axis")
    region = tuple((0, n) for n in sample.shape[1:])
    tables: list[LutTable] = []
    _encode_region(sample, region, cfg, tables)
    return LutEncodedSample(
        shape=tuple(sample.shape), tables=tables, dtype=sample.dtype
    )


def apply_to_tables(
    enc: LutEncodedSample,
    func: Callable[[np.ndarray], np.ndarray],
    out_dtype: np.dtype | str | None = None,
) -> LutEncodedSample:
    """Fuse a preprocessing operator into the lookup tables.

    Applies ``func`` to each table's values — a few hundred entries — instead
    of the expanded multi-million-voxel volume.  This is the paper's operator
    reordering: preprocessing *before* decompression.  Returns a new encoded
    sample sharing the key arrays (zero copies of the bulky part).
    """
    new_tables = []
    for t in enc.tables:
        vals = func(t.values)
        if out_dtype is not None:
            vals = vals.astype(out_dtype)
        new_tables.append(LutTable(region=t.region, keys=t.keys, values=vals))
    dtype = new_tables[0].values.dtype if new_tables else enc.dtype
    return LutEncodedSample(shape=enc.shape, tables=new_tables, dtype=dtype)


def decode_sample(
    enc: LutEncodedSample,
    out: np.ndarray | None = None,
    dtype: np.dtype | str | None = None,
) -> np.ndarray:
    """Decode to a channel-first dense array.

    Per table, one row gather and one transposing write: the ``[K, C]``
    table is viewed as ``K`` rows of ``C·itemsize`` bytes, ``take(keys)``
    gathers one row per voxel, and the rows are written channel-first
    straight into ``out``.  ``dtype`` overrides the output dtype (the
    pipeline requests ``float16``; with the cast folded into the tables by
    :func:`apply_to_tables`, the write casts nothing).
    """
    out_dtype = np.dtype(dtype) if dtype is not None else enc.tables[0].values.dtype
    C = enc.shape[0]
    if out is None:
        out = np.empty(enc.shape, dtype=out_dtype)
    elif out.shape != enc.shape or out.dtype != out_dtype:
        raise ValueError("out buffer must match encoded shape/dtype")
    for t in enc.tables:
        region_shape = tuple(hi - lo for lo, hi in t.region)
        values = np.ascontiguousarray(t.values)
        row = np.dtype((np.void, C * values.dtype.itemsize))
        rows = values.view(row).reshape(-1).take(t.keys)  # [n_voxels] rows
        block = rows.view(values.dtype).reshape(*region_shape, C)
        slices = (slice(None),) + tuple(slice(lo, hi) for lo, hi in t.region)
        out[slices] = np.moveaxis(block, -1, 0)
    return out
