"""Warp-level execution model for the divergent differential decode.

Paper §VI: "For differential encoding, the loop carried dependencies
complicate the GPU implementation.  Our GPU version uses hierarchical
parallelism, where we assign a warp of threads a copy or broadcast task and
assign tasks that create control divergence to different warps."

We model that schedule: every encoded *line* becomes a chain of warp tasks —
one per segment (delta / literal / broadcast / raw copy).  Tasks of one line
are serialized (the loop-carried dependency), lines are independent, and the
device keeps ``warps_per_wave`` warps resident.  Task durations reflect the
work class: a delta segment performs byte unpack + emulated FP adds
(serialized scan within the warp), a literal/raw segment is a coalesced
copy, a broadcast writes a constant.

The model's output is the *device time* of a full-sample decode — the
functional result itself comes from the one host decoder both placements
run (:func:`repro.core.encoding.delta.decode_images`), so accuracy of
values and accuracy of timing are decoupled by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.accel.device import GpuSpec
from repro.core.encoding.delta import (
    LINE_CONST,
    LINE_DELTA,
    LINE_RAW,
    LITERAL_SEGMENT,
    DeltaEncodedImage,
)

__all__ = ["WarpCostModel", "DecodeWorkload", "estimate_delta_decode_time"]


@dataclass(frozen=True)
class WarpCostModel:
    """Cycles per warp task, by class.

    Delta segments pay a serialized prefix-scan over the segment (the
    emulated floating-point adds carry a dependency), so their cycle count
    scales with segment length; copies and broadcasts are coalesced and
    cheap per element.
    """

    cycles_per_delta_elem: float = 12.0  # unpack + emulated add, serialized
    cycles_per_copy_elem: float = 1.5  # coalesced literal/raw copy
    cycles_per_broadcast_elem: float = 0.5
    task_setup_cycles: float = 60.0  # descriptor fetch + divergence cost


@dataclass
class DecodeWorkload:
    """Task census of one encoded image (per line-mode / segment-type)."""

    n_delta_tasks: int = 0
    n_delta_elems: int = 0
    n_copy_tasks: int = 0
    n_copy_elems: int = 0
    n_broadcast_tasks: int = 0
    n_broadcast_elems: int = 0

    @property
    def n_tasks(self) -> int:
        return self.n_delta_tasks + self.n_copy_tasks + self.n_broadcast_tasks


def _census(enc: DeltaEncodedImage) -> DecodeWorkload:
    """Count warp tasks for one encoded channel."""
    H, W = enc.shape
    ndiff = max(W - 1, 0)
    block = enc.config.block_size
    nseg = math.ceil(ndiff / block) if ndiff else 0
    w = DecodeWorkload()
    for i in range(H):
        mode = int(enc.line_modes[i])
        if mode == LINE_CONST:
            w.n_broadcast_tasks += 1
            w.n_broadcast_elems += W
        elif mode == LINE_RAW:
            w.n_copy_tasks += 1
            w.n_copy_elems += W
        elif mode == LINE_DELTA:
            blob = enc.line_payload(i)
            descriptors = np.frombuffer(blob, dtype=np.int8, count=nseg, offset=4)
            n_lit = int(np.count_nonzero(descriptors == LITERAL_SEGMENT))
            n_del = nseg - n_lit
            w.n_copy_tasks += n_lit
            w.n_delta_tasks += n_del
            # element counts: apportion by block size (last block partial)
            w.n_delta_elems += min(n_del * block, ndiff)
            w.n_copy_elems += min(n_lit * block, ndiff)
    return w


def estimate_delta_decode_time(
    encs: list[DeltaEncodedImage],
    spec: GpuSpec,
    cost: WarpCostModel | None = None,
) -> float:
    """Device seconds to decode a multi-channel delta sample.

    Tasks within a line are serialized; lines (across all channels) fill the
    device in waves of ``spec.warps_per_wave`` warps.  Completion time is
    approximated by total task cycles divided by resident-warp throughput,
    floored by the longest single line (the critical path), plus the HBM
    time to write the FP16 output.
    """
    cm = cost or WarpCostModel()
    total_cycles = 0.0
    max_line_cycles = 0.0
    out_bytes = 0
    in_bytes = 0
    for enc in encs:
        w = _census(enc)
        cycles = (
            w.n_delta_tasks * cm.task_setup_cycles
            + w.n_delta_elems * cm.cycles_per_delta_elem
            + w.n_copy_tasks * cm.task_setup_cycles
            + w.n_copy_elems * cm.cycles_per_copy_elem
            + w.n_broadcast_tasks * cm.task_setup_cycles
            + w.n_broadcast_elems * cm.cycles_per_broadcast_elem
        )
        total_cycles += cycles
        H, W = enc.shape
        if H:
            # worst line ~ all-delta line: serialized scan over W elements
            max_line_cycles = max(
                max_line_cycles,
                cm.task_setup_cycles + W * cm.cycles_per_delta_elem,
            )
        out_bytes += H * W * 2  # FP16 output
        in_bytes += enc.nbytes

    clock_hz = spec.clock_ghz * 1e9
    throughput_time = total_cycles / (spec.warps_per_wave * clock_hz)
    critical_path = max_line_cycles / clock_hz
    hbm_time = (in_bytes + out_bytes) / (spec.hbm_bw_gbps * 1e9 * spec.bw_efficiency)
    return spec.launch_overhead_s + max(throughput_time, critical_path, hbm_time)
