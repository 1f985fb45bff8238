"""Simulated accelerator substrate (substitute for V100/A100 + CUDA).

The device only keeps accounts: decode results come from the same NumPy
decoders on either placement, and elapsed device time comes from a
roofline/warp cost model parameterized by the paper's Table I (a
GPU-placed plugin charges it from its ``kernel_cost`` formulas).  See
DESIGN.md §2 for the substitution rationale.
"""

from repro.accel import transfer, warp
from repro.accel.device import A100, V100, GpuSpec, SimulatedGpu
from repro.accel.transfer import NVLINK, PCIE3, PCIE4, LinkSpec, transfer_time

__all__ = [
    "transfer",
    "warp",
    "GpuSpec",
    "SimulatedGpu",
    "V100",
    "A100",
    "LinkSpec",
    "PCIE3",
    "PCIE4",
    "NVLINK",
    "transfer_time",
]
