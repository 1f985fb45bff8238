"""Simulated GPU device (substitute for V100/A100 hardware).

The paper runs its decoders on NVIDIA V100 and A100 GPUs.  Offline we model
the device analytically: decodes placed on :class:`SimulatedGpu` compute
their *results* with the real NumPy decoders (bit-for-bit what a CUDA
kernel would produce) while their *elapsed device time* comes from a
roofline-style cost model parameterized with the paper's Table I numbers
— SM count, HBM bandwidth, FP32/TensorCore throughput, memory capacity.

The model charges each kernel ``launch_overhead + max(bytes/BW_eff,
flops/FLOPS_eff)`` — bandwidth-bound for the gather/decode kernels the paper
contributes, compute-bound for the DNN layers — with utilization derates
because real kernels never hit peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["GpuSpec", "SimulatedGpu", "V100", "A100", "KernelLaunch"]


@dataclass(frozen=True)
class GpuSpec:
    """Static device parameters (paper Table I rows)."""

    name: str
    sm_count: int
    clock_ghz: float
    hbm_bw_gbps: float  # GB/s to device memory
    fp32_tflops: float
    tensor_tflops: float
    mem_capacity_gb: float
    l2_mb: float
    #: achievable fraction of peak HBM bandwidth for streaming kernels
    bw_efficiency: float = 0.75
    #: achievable fraction of peak FP32 throughput for irregular kernels
    flop_efficiency: float = 0.60
    #: per-kernel launch overhead, seconds
    launch_overhead_s: float = 5e-6

    @property
    def warps_per_wave(self) -> int:
        """Concurrent warps the device sustains (4 schedulers × 16 warps/SM
        is a reasonable residency for these memory-bound kernels)."""
        return self.sm_count * 64


#: Table I: Summit / Cori-V100 GPU
V100 = GpuSpec(
    name="V100",
    sm_count=80,
    clock_ghz=1.53,
    hbm_bw_gbps=900.0,
    fp32_tflops=15.7,
    tensor_tflops=120.0,
    mem_capacity_gb=16.0,
    l2_mb=6.0,
)

#: Table I: Cori-A100 GPU
A100 = GpuSpec(
    name="A100",
    sm_count=104,
    clock_ghz=1.41,
    hbm_bw_gbps=1600.0,
    fp32_tflops=19.5,
    tensor_tflops=312.0,
    mem_capacity_gb=40.0,
    l2_mb=40.0,
)


@dataclass
class KernelLaunch:
    """Record of one simulated kernel execution."""

    name: str
    bytes_moved: int
    flops: float
    seconds: float


@dataclass
class SimulatedGpu:
    """One GPU instance: tracks memory allocation and accumulated busy time.

    The device does not execute anything itself — a GPU-placed plugin
    decodes on the host and calls :meth:`charge` with the cost its pure
    ``kernel_cost`` formulas give.  This separation keeps functional output
    exact while making time a pure function of the spec.
    """

    spec: GpuSpec
    allocated_bytes: int = 0
    busy_seconds: float = 0.0
    launches: list[KernelLaunch] = field(default_factory=list)

    def alloc(self, nbytes: int) -> None:
        """Reserve device memory; raises when the HBM capacity is exceeded
        (the reason CosmoFlow decomposes 512³ volumes into 128³ blocks)."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        new_total = self.allocated_bytes + nbytes
        if new_total > self.spec.mem_capacity_gb * 1e9:
            raise MemoryError(
                f"{self.spec.name}: allocation of {nbytes} bytes exceeds "
                f"{self.spec.mem_capacity_gb} GB device memory"
            )
        self.allocated_bytes = new_total

    def free(self, nbytes: int) -> None:
        if nbytes < 0 or nbytes > self.allocated_bytes:
            raise ValueError("free size out of range")
        self.allocated_bytes -= nbytes

    def kernel_time(self, bytes_moved: int, flops: float = 0.0) -> float:
        """Roofline kernel duration for this device."""
        bw = self.spec.hbm_bw_gbps * 1e9 * self.spec.bw_efficiency
        fl = self.spec.fp32_tflops * 1e12 * self.spec.flop_efficiency
        return self.spec.launch_overhead_s + max(bytes_moved / bw, flops / fl)

    def charge(
        self, name: str, bytes_moved: int, flops: float = 0.0,
        seconds: float | None = None,
    ) -> float:
        """Account one kernel execution; returns its duration.

        ``seconds`` overrides the roofline estimate for kernels with their
        own model (the divergent differential decode uses the warp model).
        """
        dt = self.kernel_time(bytes_moved, flops) if seconds is None else seconds
        self.busy_seconds += dt
        self.launches.append(
            KernelLaunch(name=name, bytes_moved=bytes_moved, flops=flops, seconds=dt)
        )
        return dt

    def reset(self) -> None:
        """Clear time/launch accounting (not memory)."""
        self.busy_seconds = 0.0
        self.launches.clear()
