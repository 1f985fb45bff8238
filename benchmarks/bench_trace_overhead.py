"""Observability overhead gate: sampled tracing must stay under 5%.

The observability plane (``repro.observe``) promises that per-sample
span trees are cheap enough to leave on in production at a sampled
rate.  Two claims are held here:

* **Throughput.**  An epoch through the graph-compiled loader with a
  :class:`~repro.observe.TraceRecorder` attached at 1/16 head sampling
  must deliver **≥ 95%** of the untraced samples/s (best-of-N on both
  sides, so scheduler noise hits each equally).  The disabled hot path
  is one thread-local read per ``span()`` call; the sampled path is one
  slotted object and two clock calls per span.
* **Bit identity.**  Tracing observes, never steers: the traced epoch
  must reproduce the untraced epoch bit for bit — locally *and* through
  a ``DataServer`` round trip with trace-context headers on the wire
  (the header rides after the request body; the reply bytes are
  untouched).

Run with ``pytest benchmarks/bench_trace_overhead.py -s`` to print the
measured numbers; the trajectory lands in ``BENCH_trace_overhead.json``.
"""

from time import perf_counter

import pytest

from bench_util import record_bench
from repro.core.plugins import DeepcamDeltaPlugin
from repro.datasets import deepcam
from repro.observe import TraceRecorder
from repro.pipeline import DataLoader, ListSource
from repro.serve import DataServer, RemoteSource
from repro.storage.cache import SampleCache

N_SAMPLES = 64
#: production-style head sampling: 1 in 16 traces committed
SAMPLE_RATE = 1.0 / 16.0
REPEATS = 5


@pytest.fixture(scope="module")
def fixture():
    cfg = deepcam.DeepcamConfig(height=32, width=48, n_channels=8)
    plugin = DeepcamDeltaPlugin("cpu")
    ds = deepcam.generate_dataset(N_SAMPLES, cfg, seed=0)
    return plugin, [plugin.encode(s.data, s.label) for s in ds]


def _epoch(source, plugin, trace, batched_fetch=False):
    loader = DataLoader(
        source, plugin, batch_size=4, seed=1, trace=trace,
        batched_fetch=batched_fetch, graph=True,
    )
    rows = []
    for batch, labels in loader.batches(0):
        rows.extend(
            (b.tobytes(), l.tobytes()) for b, l in zip(batch, labels)
        )
    return rows


def _best_rate(make_trace, plugin, blobs):
    """Best-of-N samples/s over a local epoch, plus the last epoch's rows."""
    best, rows = 0.0, None
    for _ in range(REPEATS):
        t0 = perf_counter()
        rows = _epoch(ListSource(blobs), plugin, make_trace())
        best = max(best, N_SAMPLES / (perf_counter() - t0))
    return best, rows


def test_sampled_tracing_overhead_under_5_percent(fixture):
    plugin, blobs = fixture
    untraced, rows_plain = _best_rate(lambda: None, plugin, blobs)
    traced, rows_traced = _best_rate(
        lambda: TraceRecorder(sample_rate=SAMPLE_RATE, seed=0, proc="bench"),
        plugin, blobs,
    )
    overhead = 1.0 - traced / untraced
    print(
        f"\nlocal epoch: untraced {untraced:.0f} samples/s, traced at "
        f"1/16 {traced:.0f} samples/s — {overhead:+.1%} overhead"
    )
    record_bench(
        "trace_overhead",
        {
            "untraced_samples_per_s": round(untraced, 1),
            "traced_samples_per_s": round(traced, 1),
            "overhead_frac": round(overhead, 4),
            "sample_rate": SAMPLE_RATE,
        },
    )
    # tracing observes, never steers: bit-identical epochs
    assert rows_traced == rows_plain
    assert traced >= 0.95 * untraced, (
        f"sampled tracing cost {overhead:.1%} of throughput "
        f"(budget: 5%); the hot path has regressed"
    )


def test_traced_remote_epoch_is_bit_identical(fixture):
    """A traced epoch through the data service — trace-context headers
    on every READ_BATCH frame, server spans recorded — reproduces the
    untraced remote epoch bit for bit, and the two recorders really did
    capture a stitchable client+server view."""
    plugin, blobs = fixture
    server_rec = TraceRecorder(seed=2, proc="server")
    with DataServer(
        ListSource(blobs), cache=SampleCache(1e9), trace=server_rec
    ) as server:
        host, port = server.address
        with RemoteSource(host, port) as src:
            rows_plain = _epoch(src, plugin, None, batched_fetch=True)
        client_rec = TraceRecorder(seed=1, proc="client")
        with RemoteSource(host, port) as src:
            rows_traced = _epoch(src, plugin, client_rec,
                                 batched_fetch=True)
        served = server.stats.snapshot()
    assert rows_traced == rows_plain
    # the compiled plan's fetch rode the batch plane: one READ_BATCH per
    # group of 4 in each of the two epochs, and not one scalar READ
    assert served["serve.read_batch"][0] == 2 * (N_SAMPLES // 4)
    assert "serve.read" not in served
    client_spans = client_rec.spans()
    server_spans = server_rec.spans()
    rpc_ids = {s.trace_id for s in client_spans if s.name == "wire.rpc"}
    handled = {s.trace_id for s in server_spans
               if s.name == "server.handle"}
    assert rpc_ids, "client recorded no wire.rpc spans"
    assert rpc_ids & handled, (
        "no server.handle span shares a trace_id with a client wire.rpc "
        "span — trace-context propagation is broken"
    )
