"""The untraced run: timed rounds, correctness checks, end-to-end metrics.

The timed part of a run is a series of rounds, cut off by one wall-clock
deadline.  A round is phase A — one shuffled pass of scalar,
integrity-checked reads through the workload's source stack, each blob
compared to its source after its timer stops — and then phase B, one
loader epoch whose consumer does nothing but take batches.  Both are
closed loops with one consumer thread.  The two phases take turns
because this sandbox slows down for seconds at a time: a phase measured
in one block can sit inside such a burst, a phase spread over the whole
run cannot.  What the loader delivers is checked right after the timed
part, in an untimed verification epoch of the same loader whose
per-sample digests must equal a reference built from direct
``plugin.decode(blob)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import common
from workloads import (
    FIRST_TIMED_EPOCH, VERIFY_EPOCH, Workload, digest_epoch, sample_digest,
)

from repro.conformance import decode_delta_reference, decode_lut_reference
from repro.core.encoding.container import unpack_sample
from repro.core.plugins.cosmoflow import log_transform


@dataclass
class Tally:
    """Operations attempted and failed across a run."""

    attempted: int = 0
    failed: int = 0


@dataclass
class Rounds:
    """What the timed rounds of a run (or of a part of one) measured."""

    reads: list[float] = field(default_factory=list)  # s per good read
    #: per complete epoch: samples/s, and CPU ms per sample of this
    #: process plus the server subprocess
    rates: list[float] = field(default_factory=list)
    cpu_ms: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)  # batch k-1 -> batch k
    first_batch: list[float] = field(default_factory=list)
    wait_frac: float = 0.0  # executor.wait / loader.epoch
    next_epoch: int = FIRST_TIMED_EPOCH

    @property
    def samples_per_s(self) -> float:
        """Median of the per-epoch rates."""
        return common.median(self.rates)


def conformance_failures(w: Workload) -> int:
    """Two blobs of the workload's codec against the reference decoders.

    The references walk one value at a time, so the delta check covers
    the first and last channel of each blob, not all sixteen.
    """
    failures = 0
    for blob in w.blobs[:2]:
        tensor, _ = w.plugin.decode(blob)
        _, payload, _, _ = unpack_sample(blob)
        if w.codec == "lut":
            counts = decode_lut_reference(payload)
            raw, _ = w.plugin.decode_raw(blob)
            fused = log_transform(counts).astype(np.float16)
            ok = (counts.tobytes() == raw.tobytes()
                  and fused.tobytes() == tensor.tobytes())
        elif w.codec == "delta":
            ok = all(
                decode_delta_reference(payload[c]).tobytes()
                == tensor[c].tobytes()
                for c in (0, len(payload) - 1)
            )
        else:
            return 0
        failures += not ok
    return failures


def read_pass(w: Workload, fetch, order, tally: Tally, out: list) -> None:
    """Phase A of a round: scalar reads in ``order``; each blob is
    compared to its source after its timer has stopped."""
    for index in order:
        t0 = perf_counter()
        try:
            blob = fetch.read(index)
        except Exception:  # noqa: BLE001 — counted as a failed read
            blob = None
        t1 = perf_counter()
        tally.attempted += 1
        if blob is None or blob != w.blob_of(index):
            tally.failed += 1
        else:
            out.append(t1 - t0)


def timed_rounds(w: Workload, seconds: float, tally: Tally,
                 first_epoch: int = FIRST_TIMED_EPOCH,
                 on_batch=None) -> Rounds:
    """Rounds of a read pass and a loader epoch until the deadline.

    ``on_batch`` (traced runs) is a context manager factory opened
    around each wait for a batch.
    """
    def cpu_now() -> float:
        return common.cpu_seconds() + w.server_usage()["cpu_s"]

    out = Rounds(next_epoch=first_epoch)
    rng = np.random.default_rng([w.seed, 0xA, first_epoch])
    before = w.stats.snapshot()
    deadline = perf_counter() + seconds
    expired = False
    while not expired:
        epoch = out.next_epoch
        out.next_epoch += 1
        fetch = w.fetch_source()
        read_pass(w, fetch, rng.permutation(len(fetch)).tolist(), tally,
                  out.reads)
        loader = w.loader_for_epoch(epoch)
        quarantined0 = len(loader.quarantine)
        batches = loader.batches(epoch)
        n = 0
        cpu0 = cpu_now()
        t_epoch = t_prev = perf_counter()
        try:
            while True:
                if on_batch is None:
                    batch = next(batches, None)
                else:
                    with on_batch(epoch):
                        batch = next(batches, None)
                now = perf_counter()
                if batch is not None:
                    (out.gaps if n else out.first_batch).append(now - t_prev)
                    t_prev = now
                    n += len(batch[0])
                    expired = now >= deadline
                # a complete epoch counts; so does a cut one when the
                # deadline leaves nothing else
                if batch is None or (expired and not out.rates):
                    out.rates.append(n / (now - t_epoch))
                    out.cpu_ms.append(common.ms(cpu_now() - cpu0) / max(n, 1))
                if batch is None or expired:
                    break
        finally:
            batches.close()  # stops the executor's threads on a cut epoch
        skipped = len(loader.quarantine) - quarantined0
        tally.attempted += n + skipped
        tally.failed += skipped
    after = w.stats.snapshot()

    def delta(name: str) -> float:
        return after.get(name, (0, 0.0))[1] - before.get(name, (0, 0.0))[1]

    if delta("loader.epoch") > 0:
        out.wait_frac = delta("executor.wait") / delta("loader.epoch")
    return out


def verify(w: Workload, tally: Tally) -> None:
    """Untimed verification epoch against direct ``plugin.decode``."""
    reference = [sample_digest(*w.plugin.decode(blob)) for blob in w.blobs]
    digests, order, quarantined = digest_epoch(
        w.verification_loader(), VERIFY_EPOCH
    )
    expected = [
        reference[w.blob_id(i)] for i in order if i not in quarantined
    ]
    mismatched = sum(a != b for a, b in zip(digests, expected))
    mismatched += abs(len(digests) - len(expected))
    tally.attempted += len(order)
    tally.failed += len(quarantined) + mismatched
    extra = w.final_checks(digests)
    tally.attempted += 1
    tally.failed += extra


def run_untraced(w: Workload, seconds: float, setup_s: float) -> dict:
    """The timed rounds, verification, and the end-to-end record."""
    tally = Tally()
    w.begin_timed()
    try:
        timed = timed_rounds(w, seconds, tally)
    finally:
        w.end_timed()
    appended, append_failures = w.writes()
    tally.attempted += appended
    tally.failed += append_failures
    verify(w, tally)
    # Each entry: value, unit, number of samples behind the value.
    metrics = {
        "samples_per_s": (timed.samples_per_s, "1/s", len(timed.rates)),
        "cpu_ms_per_sample": (
            common.median(timed.cpu_ms), "ms", len(timed.cpu_ms)),
        "read_p50_ms": (
            common.ms(common.median(timed.reads)), "ms", len(timed.reads)),
        "peak_rss_mb": (
            common.peak_rss_mb() + w.server_usage()["rss_mb"], "MB", 1),
        "setup_s": (setup_s, "s", 1),
    }
    # tails, too unsteady on this sandbox to carry an end-to-end bound
    # (the traced run reports them as per-layer metrics): value, n
    tails = {"batch_wait_p95_ms": timed.gaps, "read_p95_ms": timed.reads}
    if w.appender is not None:
        tails["append_p95_ms"] = w.appender.from_due_s
    return {
        "metrics": metrics, "attempted": tally.attempted,
        "failed": tally.failed,
        "extra": {
            # what the medians above were taken over
            "slices": {
                "epoch_samples_per_s": timed.rates,
                "epoch_cpu_ms_per_sample": timed.cpu_ms,
            },
            "tails": {
                key: {"value": common.ms(common.percentile(values, 95)),
                      "unit": "ms", "n": len(values)}
                for key, values in tails.items()
            },
        },
    }
