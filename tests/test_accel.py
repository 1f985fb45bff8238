"""Tests for the simulated accelerator: device, transfers, warp model.

What a GPU-placed decode charges the device is pinned per plugin in
``tests/test_plugin_contract.py``."""

import numpy as np
import pytest

from repro.accel import (
    A100,
    NVLINK,
    PCIE3,
    PCIE4,
    V100,
    SimulatedGpu,
    transfer_time,
)
from repro.accel.transfer import pageable_bandwidth
from repro.accel.warp import WarpCostModel, estimate_delta_decode_time
from repro.core.encoding.delta import encode_image

_MB = 1 << 20


class TestDevice:
    def test_table1_values(self):
        assert V100.sm_count == 80 and A100.sm_count == 104
        assert V100.hbm_bw_gbps == 900 and A100.hbm_bw_gbps == 1600
        assert V100.tensor_tflops == 120 and A100.tensor_tflops == 312
        assert V100.mem_capacity_gb == 16 and A100.mem_capacity_gb == 40

    def test_alloc_free_capacity(self):
        dev = SimulatedGpu(spec=V100)
        dev.alloc(10 * 10**9)
        with pytest.raises(MemoryError):
            dev.alloc(7 * 10**9)  # 17 GB > 16 GB
        dev.free(10 * 10**9)
        dev.alloc(15 * 10**9)

    def test_alloc_validation(self):
        dev = SimulatedGpu(spec=V100)
        with pytest.raises(ValueError):
            dev.alloc(-1)
        with pytest.raises(ValueError):
            dev.free(1)

    def test_kernel_time_bandwidth_bound(self):
        dev = SimulatedGpu(spec=V100)
        t = dev.kernel_time(bytes_moved=675_000_000_000)  # 1s at 675 GB/s
        assert t == pytest.approx(1.0, rel=0.01)

    def test_kernel_time_compute_bound(self):
        dev = SimulatedGpu(spec=V100)
        flops = V100.fp32_tflops * 1e12 * V100.flop_efficiency
        assert dev.kernel_time(0, flops) == pytest.approx(1.0, rel=0.01)

    def test_charge_accumulates(self):
        dev = SimulatedGpu(spec=V100)
        dev.charge("k1", bytes_moved=1000)
        dev.charge("k2", bytes_moved=1000, seconds=0.5)
        assert dev.busy_seconds > 0.5
        assert [k.name for k in dev.launches] == ["k1", "k2"]
        dev.reset()
        assert dev.busy_seconds == 0 and not dev.launches

    def test_a100_faster_than_v100_for_bandwidth_kernels(self):
        tv = SimulatedGpu(spec=V100).kernel_time(10**9)
        ta = SimulatedGpu(spec=A100).kernel_time(10**9)
        assert ta < tv


class TestTransfer:
    def test_paper_measured_pageable_ranges(self):
        # §IX-A: 4-8 GB/s (V100 node) and 6-8 GB/s (A100 node) for 4-64 MB
        for mb, lo, hi in ((4, 3.5, 8.5), (64, 3.5, 8.5)):
            bw = pageable_bandwidth(PCIE3, mb * _MB) / 1e9
            assert lo <= bw <= hi
        for mb in (4, 64):
            bw = pageable_bandwidth(PCIE4, mb * _MB) / 1e9
            assert 5.5 <= bw <= 8.5

    def test_pinned_peaks(self):
        assert PCIE3.pinned_bw_gbps == pytest.approx(12.4)
        assert PCIE4.pinned_bw_gbps == pytest.approx(24.7)

    def test_bandwidth_monotone_in_size(self):
        sizes = [1 * _MB, 4 * _MB, 16 * _MB, 64 * _MB, 256 * _MB]
        bws = [pageable_bandwidth(PCIE3, s) for s in sizes]
        assert all(a <= b for a, b in zip(bws, bws[1:]))

    def test_nvlink_faster_than_pcie(self):
        n = 32 * _MB
        assert transfer_time(NVLINK, n) < transfer_time(PCIE3, n)

    def test_pinned_faster_than_pageable(self):
        n = 32 * _MB
        assert transfer_time(PCIE3, n, pinned=True) < transfer_time(PCIE3, n)

    def test_latency_floor(self):
        assert transfer_time(PCIE3, 0) == PCIE3.latency_s

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            transfer_time(PCIE3, -1)

    def test_batching_amortizes(self):
        # one 8 MB transfer beats two 4 MB transfers (the baseline's reason
        # to like batching)
        one = transfer_time(PCIE3, 8 * _MB)
        two = 2 * transfer_time(PCIE3, 4 * _MB)
        assert one < two


def _smooth_channels(c=2, h=8, w=96, seed=0):
    rng = np.random.default_rng(seed)
    img = np.cumsum(rng.normal(0, 0.01, size=(c, h, w)), axis=2).astype(
        np.float32
    ) + 1.0
    return img, [encode_image(ch) for ch in img]


class TestWarpModel:
    def test_decode_time_positive_and_scales(self):
        # large enough that per-element work dominates launch overhead
        _, small = _smooth_channels(c=2, h=64, w=512)
        _, big = _smooth_channels(c=8, h=256, w=512)
        t_small = estimate_delta_decode_time(small, V100)
        t_big = estimate_delta_decode_time(big, V100)
        assert 0 < t_small < t_big

    def test_a100_not_slower_at_scale(self):
        # with many independent lines the throughput/HBM terms dominate and
        # the A100's wider machine wins; tiny single-line workloads are
        # legitimately clock-bound and can favour the V100's higher clock
        _, encs = _smooth_channels(c=8, h=256, w=512)
        assert estimate_delta_decode_time(encs, A100) <= (
            estimate_delta_decode_time(encs, V100)
        )

    def test_cost_model_knobs(self):
        _, encs = _smooth_channels(c=2, h=16)
        cheap = WarpCostModel(cycles_per_delta_elem=1.0)
        costly = WarpCostModel(cycles_per_delta_elem=500.0)
        assert estimate_delta_decode_time(encs, V100, cheap) < (
            estimate_delta_decode_time(encs, V100, costly)
        )


class TestWarpCensus:
    def test_census_counts_known_modes(self):
        from repro.accel.warp import _census
        from repro.core.encoding.delta import encode_image

        rng = np.random.default_rng(9)
        img = np.empty((3, 80), dtype=np.float32)
        img[0] = 4.25  # CONST -> one broadcast task
        img[1] = np.cumsum(rng.normal(0, 0.01, 80)) + 1.0  # DELTA
        img[2] = (rng.standard_normal(80)
                  * 10.0 ** rng.integers(-6, 6, 80).astype(float))  # RAW
        enc = encode_image(img)
        w = _census(enc)
        assert w.n_broadcast_tasks == 1
        assert w.n_broadcast_elems == 80
        # raw line -> one copy task covering the full line; literal
        # segments of the delta line may add more copies
        assert w.n_copy_tasks >= 1
        assert w.n_delta_tasks >= 1
        assert w.n_tasks == (
            w.n_delta_tasks + w.n_copy_tasks + w.n_broadcast_tasks
        )
