"""Fault-tolerance overhead on the clean path.

The robustness layers (container-v2 CRC32 verification and the
``RetryingSource`` wrapper) run on every read — their cost must be noise
against decode.  This microbench measures the clean-path overhead directly
and asserts it stays **under 5% of decode time**: a CRC32 over an encoded
blob is a single C-speed pass over a few hundred KB, while decode touches
every element of the much larger decoded tensor.

Run with ``pytest benchmarks/bench_fault_overhead.py -s`` to print the
measured ratio; the run recorded in CHANGES.md used this module.
"""

import time

import pytest

from repro.core.encoding.container import verify_sample
from repro.core.plugins import CosmoflowLutPlugin, DeepcamDeltaPlugin
from repro.datasets import cosmoflow, deepcam
from repro.pipeline import ListSource
from repro.robust import RetryingSource, RetryPolicy


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


def test_verify_overhead_under_5pct_of_decode(deepcam_blob, cosmo_blob):
    for name, (plugin, blob) in {
        "deepcam/delta": deepcam_blob,
        "cosmoflow/lut": cosmo_blob,
    }.items():
        decode_s = _best_of(lambda: plugin.decode(blob))
        verify_s = _best_of(lambda: verify_sample(blob))
        ratio = verify_s / decode_s
        print(
            f"\n{name}: decode {decode_s * 1e6:.0f} µs, "
            f"verify {verify_s * 1e6:.1f} µs — {ratio:.2%} of decode"
        )
        assert ratio < 0.05, (
            f"{name}: checksum verification costs {ratio:.1%} of decode"
        )


def test_retry_wrapper_overhead_under_5pct_of_decode(deepcam_blob):
    from bench_util import record_bench

    plugin, blob = deepcam_blob
    plain = ListSource([blob] * 8)
    wrapped = RetryingSource(
        ListSource([blob] * 8),
        RetryPolicy(max_attempts=3),
        verify=True,
    )

    def sweep(source):
        for i in range(len(plain)):
            source.read(i)

    decode_s = _best_of(lambda: plugin.decode(blob)) * len(plain)
    plain_s = _best_of(lambda: sweep(plain))
    wrapped_s = _best_of(lambda: sweep(wrapped))
    overhead = max(wrapped_s - plain_s, 0.0)
    ratio = overhead / decode_s
    print(
        f"\nclean-path retry+verify: {overhead * 1e6:.1f} µs per 8 reads "
        f"({ratio:.2%} of the matching decode time)"
    )
    record_bench(
        "fault_overhead",
        {
            "clean_path_overhead_us": round(overhead * 1e6, 2),
            "overhead_vs_decode_frac": round(ratio, 4),
        },
    )
    assert ratio < 0.05
    assert wrapped.stats.retries == 0  # clean path: the wrapper never fires


def test_fault_free_chaos_epoch_overhead(benchmark, deepcam_blob):
    """End-to-end: a fully wrapped (injector-less) epoch through the
    loader with verification on, timed for the record."""
    from repro.pipeline import DataLoader

    plugin, blob = deepcam_blob
    loader = DataLoader(
        RetryingSource(ListSource([blob] * 8), verify=True),
        plugin,
        batch_size=4,
        shuffle=False,
        bad_sample_policy="skip",
        verify_reads=True,
    )
    batches = benchmark(lambda: list(loader.batches(0)))
    assert len(batches) == 2
    assert not loader.quarantine
