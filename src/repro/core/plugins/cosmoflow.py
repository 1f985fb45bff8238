"""CosmoFlow sample plugins (paper §V-B, §VI, §IX-B).

Figure 10/11 compares three representations:

* :class:`CosmoflowBaselinePlugin` ("base") — raw int16 particle counts in
  TFRecord-style containers; the CPU applies ``log1p`` to every one of the
  sample's millions of voxels and casts to FP32, which then crosses the
  CPU→GPU link.  (The gzip baseline is the same plugin behind a
  gzip-compressed record reader — compression lives in the storage layer,
  as it does for TFRecords.)
* :class:`CosmoflowLutPlugin` ("plugin") — lookup-table storage; decode
  applies ``log1p`` to the *table* (a few hundred unique groups), casts the
  table to FP16, and expands with a single gather.  GPU placement ships
  only keys+tables across the link.

The paper's CosmoFlow decode "is not lossy when casting to FP16": counts
are small integers whose ``log1p`` fits FP16 comfortably; our tests assert
the decoded tensor equals the FP16 cast of the exact FP32 computation.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import container
from repro.core.encoding.lut import (
    LutCodecConfig,
    apply_to_tables,
    decode_sample,
    encode_sample,
)
from repro.core.plugins.base import FusedStep, SampleCost, SamplePlugin

__all__ = [
    "CosmoflowBaselinePlugin",
    "CosmoflowLutPlugin",
    "log_transform",
    "lut_kernel_cost",
]


def log_transform(counts: np.ndarray) -> np.ndarray:
    """The CosmoFlow preprocessing operator: ``log(count + 1)`` in FP32."""
    return np.log1p(counts.astype(np.float32))


def lut_kernel_cost(enc, out: np.ndarray, table_pass: bool = False) -> list:
    """Device launches of one LUT-encoded sample's decode into ``out``.

    With ``table_pass`` the fused chain first runs over the table entries
    (K·C flops, negligible bytes) — the paper's reordering that touches
    hundreds of unique values instead of millions of voxels; then one
    coalesced gather reads the keys and the (folded) values and writes
    ``out`` ("no dependencies between threads").
    """
    entries = sum(t.values.size for t in enc.tables)
    value_bytes = sum(t.values.nbytes for t in enc.tables)
    launches = []
    if table_pass:
        launches.append(
            ("lut_table_preproc", 2 * value_bytes, float(4 * entries), None)
        )
        value_bytes = entries * out.dtype.itemsize  # the folded tables
    key_bytes = sum(t.keys.nbytes for t in enc.tables)
    launches.append(
        ("lut_gather", key_bytes + value_bytes + out.nbytes, 0.0, None)
    )
    return launches


class CosmoflowBaselinePlugin(SamplePlugin):
    """Raw int16 counts + full-volume CPU ``log1p`` — the paper's baseline.

    The raw container has no table to fold operators into, so fusing
    ``log1p`` into decode only saves op dispatch (``fused_cost_hint``
    stays 1.0): the cost model correctly sees no decode win for the
    baseline, which is the paper's point.
    """

    name = "base"
    placement = "cpu"
    graph_name = "cosmoflow-base"
    steps = (FusedStep("log1p", log_transform),)

    def encode(self, data: np.ndarray, label: np.ndarray) -> bytes:
        return container.pack_raw_sample(
            np.ascontiguousarray(data, dtype=np.int16), label
        )

    def decode_group(self, blobs, func=None, device=None) -> list:
        """The stored int16 counts; ``func`` runs as one pass over each."""
        return self._decode_slots(blobs, device, one=lambda d: d, post=func)

    def measure(self, data: np.ndarray, label: np.ndarray) -> SampleCost:
        blob = self.encode(data, label)
        decoded_bytes = int(data.size) * 4  # FP32 log-transformed tensor
        return SampleCost(
            stored_bytes=len(blob),
            h2d_bytes=decoded_bytes,
            decoded_bytes=decoded_bytes,
            cpu_preprocess_elems=int(data.size),
        )


class CosmoflowLutPlugin(SamplePlugin):
    """Lookup-table storage with fused ``log1p``-on-table decode.

    Its chain is ``[log1p] → fp16``: :meth:`decode` folds it into the
    tables before one gather, and :meth:`declare_preprocessing` declares
    the same steps as graph nodes, which the optimizer's fusion pass
    folds back in — one fused path, asserted against the golden vectors.
    """

    codec = "lut"
    #: nominal table-entries-to-voxels ratio used as the fused-step cost
    #: hint: the paper's samples have a few hundred unique groups per
    #: multi-million-voxel volume, so an operator fused into the table is
    #: orders of magnitude cheaper than a full pass (ranking hint only)
    _TABLE_FRACTION = fused_cost_hint = 1.0 / 64.0

    def __init__(
        self,
        placement: str = "gpu",
        config: LutCodecConfig | None = None,
        apply_log: bool = True,
    ) -> None:
        if placement not in ("cpu", "gpu"):
            raise ValueError("placement must be 'cpu' or 'gpu'")
        self.placement = placement
        self.name = "plugin-cpu" if placement == "cpu" else "plugin"
        self.graph_name = f"cosmoflow-lut-{placement}"
        self.config = config or LutCodecConfig()
        self.apply_log = apply_log
        self.steps = (
            (FusedStep("log1p", log_transform),) if apply_log else ()
        ) + (FusedStep("fp16", out_dtype=np.dtype(np.float16), cost_hint=0.5),)

    def encode(self, data: np.ndarray, label: np.ndarray) -> bytes:
        enc = encode_sample(np.ascontiguousarray(data, dtype=np.int16), self.config)
        return container.pack_lut_sample(enc, label)

    def decode_group(self, blobs, func=None, device=None) -> list:
        """Fold ``func`` into each sample's tables, then gather.

        Elementwise operators commute bit-exactly with the gather
        (``f(table)[keys] == f(table[keys])`` element for element), so
        applying the chain to a few hundred table values before the
        gather produces the identical tensor at a fraction of the work —
        the paper's ``log1p``+FP16 reordering, derived generically.
        """

        def fold(enc):
            return enc if func is None else apply_to_tables(enc, func)

        table_pass = func is not None and not getattr(func, "casts_only", False)
        return self._decode_slots(
            blobs, device,
            one=lambda enc: decode_sample(fold(enc)),
            cost=lambda enc, out, spec: lut_kernel_cost(enc, out, table_pass),
        )

    def measure(self, data: np.ndarray, label: np.ndarray) -> SampleCost:
        blob = self.encode(data, label)
        enc, _ = self._unpack(blob)
        decoded_bytes = int(data.size) * 2  # FP16 tensor
        # CPU placement still benefits from the fusion: only table entries
        # pass through log1p; the gather is the bulk of host work.
        n_table_entries = sum(t.values.size for t in enc.tables)
        return self._gpu_cost(blob, decoded_bytes) or SampleCost(
            stored_bytes=len(blob),
            h2d_bytes=decoded_bytes,
            decoded_bytes=decoded_bytes,
            cpu_preprocess_elems=int(data.size) // 4 + n_table_entries,
        )
