"""Instrumentation overhead on the hot path.

The tuner's stage-timing counters (:mod:`repro.tune.stats`) run on every
item the executor delivers — their cost must be noise against decode.
Per item the instrumented executor pays two ``perf_counter`` calls and
one :meth:`Stat.add`; this microbench measures that directly, and then
times a whole epoch through an instrumented vs uninstrumented
:class:`PrefetchExecutor`, asserting both stay **under 5% of decode
time** (same methodology as ``bench_fault_overhead.py``).

Run with ``pytest benchmarks/bench_tuner_overhead.py -s`` to print the
measured ratios.
"""

import time

import pytest

from repro.core.plugins import CosmoflowLutPlugin, DeepcamDeltaPlugin
from repro.datasets import cosmoflow, deepcam
from repro.pipeline import ListSource
from repro.pipeline.executor import PrefetchExecutor
from repro.pipeline.graph import Pipeline
from repro.pipeline.ops import DecodeOp, ReadOp
from repro.tune.stats import StatsRegistry


@pytest.fixture(scope="module")
def deepcam_blob():
    cfg = deepcam.DeepcamConfig(height=96, width=144, n_channels=8)
    s = deepcam.generate_sample(cfg, seed=0)
    plugin = DeepcamDeltaPlugin("cpu")
    return plugin, plugin.encode(s.data, s.label)


@pytest.fixture(scope="module")
def cosmo_blob():
    cfg = cosmoflow.CosmoflowConfig(grid=64)
    s = cosmoflow.generate_sample(cfg, seed=0)
    plugin = CosmoflowLutPlugin("cpu")
    return plugin, plugin.encode(s.data, s.label)


def _best_of(fn, repeats=7, inner=20):
    """Best-of-N timing to suppress scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def test_stat_update_under_5pct_of_decode(deepcam_blob, cosmo_blob):
    """The per-item record (2x perf_counter + Stat.add) vs one decode."""
    registry = StatsRegistry()
    stat = registry.stat("executor.items")

    def record_one():
        t0 = time.perf_counter()
        stat.add(time.perf_counter() - t0)

    record_s = _best_of(record_one, inner=1000)
    for name, (plugin, blob) in {
        "deepcam/delta": deepcam_blob,
        "cosmoflow/lut": cosmo_blob,
    }.items():
        decode_s = _best_of(lambda: plugin.decode(blob))
        ratio = record_s / decode_s
        print(
            f"\n{name}: decode {decode_s * 1e6:.0f} µs, "
            f"stat record {record_s * 1e9:.0f} ns — {ratio:.3%} of decode"
        )
        assert ratio < 0.05, (
            f"{name}: per-item instrumentation costs {ratio:.1%} of decode"
        )


@pytest.mark.parametrize("num_workers", [0, 2])
def test_instrumented_epoch_under_5pct_of_decode(deepcam_blob, num_workers):
    """Whole-epoch comparison: executor with vs without a registry."""
    plugin, blob = deepcam_blob
    n = 16
    indices = list(range(n))

    def epoch(stats):
        pipeline = Pipeline([ReadOp(ListSource([blob] * n)), DecodeOp(plugin)])
        ex = PrefetchExecutor(pipeline, num_workers=num_workers, stats=stats)
        for _ in ex.run(indices):
            pass

    def timed(stats):
        t0 = time.perf_counter()
        epoch(stats)
        return time.perf_counter() - t0

    timed(None)
    timed(StatsRegistry())  # warm both paths before timing
    decode_total = _best_of(lambda: plugin.decode(blob), inner=5) * n
    # paired, interleaved rounds: machine-load drift hits both variants of
    # a pair equally, and min-over-pairs picks the quietest round
    pairs = [(timed(None), timed(StatsRegistry())) for _ in range(9)]
    plain_s, instrumented_s = min(pairs, key=lambda p: p[1] - p[0])
    overhead = max(instrumented_s - plain_s, 0.0)
    ratio = overhead / decode_total
    print(
        f"\nworkers={num_workers}: epoch {plain_s * 1e3:.2f} ms plain, "
        f"{instrumented_s * 1e3:.2f} ms instrumented — "
        f"overhead {ratio:.2%} of decode time"
    )
    from bench_util import record_bench

    record_bench(
        f"tuner_overhead_workers{num_workers}",
        {
            "plain_epoch_ms": round(plain_s * 1e3, 3),
            "instrumented_epoch_ms": round(instrumented_s * 1e3, 3),
            "overhead_vs_decode_frac": round(ratio, 4),
        },
    )
    assert ratio < 0.05


def test_counters_survive_the_epoch(deepcam_blob):
    """Sanity: the instrumented run actually recorded every item."""
    plugin, blob = deepcam_blob
    n = 12
    stats = StatsRegistry()
    pipeline = Pipeline([ReadOp(ListSource([blob] * n)), DecodeOp(plugin)])
    ex = PrefetchExecutor(pipeline, num_workers=2, stats=stats)
    for _ in ex.run(list(range(n))):
        pass
    snap = stats.snapshot()
    assert snap["executor.items"][0] == n
    assert snap["executor.items"][1] > 0.0
