"""The traced run: timing proxies, the ladder replay, per-layer metrics.

Every layer is measured from outside, by timing calls into its public
functions on the workload's own blobs:

1. timed rounds (``measure.timed_rounds``) without and then with timing
   proxies at the two public seams (``SampleSource.read*`` and
   ``SamplePlugin.decode*``) under a ``loader.batch`` parent span — the
   difference in samples/s is the cost of the instrument
   (``trace.overhead_frac``);
2. a ladder replay over one index order, each rung called directly:
   memcpy -> ``verify_sample`` -> ``unpack_sample`` -> ``plugin.decode``
   -> ``Pipeline.run`` -> ``PrefetchExecutor.run`` -> ``DataLoader``
   on the local side, socket echo -> ``RemoteSource`` ->
   ``ClusterSource`` -> ``RetryingSource`` on the wire side (against
   ``server.py`` serving the same blobs), and an unloaded ingest rung.

End-to-end numbers never come from here.
"""

from __future__ import annotations

import copy
import itertools
import socket
import zlib
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import common
from measure import Rounds, Tally, timed_rounds, verify
from spans import SpanRecorder, check_parents, summarize
from workloads import (
    BATCH_SIZE, FIRST_TIMED_EPOCH, Appender, ClusterRig, Workload,
    write_record_file,
)

from repro.cluster import ClusterSource, dispatcher_call
from repro.core.encoding.container import unpack_sample, verify_sample
from repro.graph.compiler import compile_graph
from repro.ingest import IngestWriter, ManifestSource
from repro.pipeline import PrefetchExecutor
from repro.pipeline.sources import read_batch_slots
from repro.robust import RetryingSource
from repro.serve import RemoteSource, protocol
from repro.storage.tfrecord import build_index

#: share of ``--seconds`` for the timed rounds without, and again for
#: those with, timing proxies
ROUNDS_SHARE = 0.3
LADDER_EPOCH = 1_000_003
#: plain/traced alternations of the timed rounds
TURNS = 2
#: passes of every ladder rung over the replay order
PASSES = 3
ROUTE_CALLS = 20
INGEST_APPENDS = 16
INGEST_HZ = 32.0


# -- timing proxies at the two public seams ----------------------------------


class TracedSource:
    """``SampleSource`` proxy: a span around each read the pipeline makes."""

    def __init__(self, inner, rec: SpanRecorder) -> None:
        self.inner = inner
        self.rec = rec

    def __len__(self) -> int:
        return len(self.inner)

    def read(self, index: int) -> bytes:
        with self.rec.span("sources.read"):
            return self.inner.read(index)

    def read_batch_slots(self, indices) -> list:
        with self.rec.span("sources.read_batch"):
            return read_batch_slots(self.inner, indices)


def traced_plugin(plugin, rec: SpanRecorder):
    """``plugin`` with spans around its decode entry points.

    A subclass of the plugin's own class, so ``declare_preprocessing``
    hands *this* object to the graph and compiled plans hit the proxy.
    """
    base = type(plugin)

    class Traced(base):
        def decode(self, blob, device=None):
            with rec.span("plugins.decode"):
                return base.decode(self, blob, device)

        def decode_raw(self, blob, device=None):
            with rec.span("plugins.decode"):
                return base.decode_raw(self, blob, device)

        def decode_fused(self, blob, func=None, device=None):
            with rec.span("plugins.decode"):
                return base.decode_fused(self, blob, func, device)

        def decode_batch(self, blobs, device=None):
            with rec.span("plugins.decode_batch"):
                return base.decode_batch(self, blobs, device)

    proxy = copy.copy(plugin)
    proxy.__class__ = Traced
    return proxy


def batch_spans(rec: SpanRecorder):
    """``on_batch`` hook: one ``loader.batch`` span per wait for a batch,
    kept as the recorder's root so worker-thread spans hang under it."""
    ordinal = itertools.count()

    @contextmanager
    def on_batch(epoch: int):
        with rec.span("loader.batch", trace=next(ordinal)) as sp:
            rec.root = sp
            yield

    return on_batch


# -- rung helpers ------------------------------------------------------------


def passes(rungs: dict) -> dict:
    """Seconds per item of every rung over ``PASSES`` passes.

    A rung is a function that makes one pass over the replay order and
    returns its per-item seconds.  The rungs take turns pass by pass,
    and the one that goes first rotates, so a machine whose speed
    drifts slows all of them alike; within a pass a rung runs alone,
    with the caches it would have in a loader.
    """
    out: dict = {name: [] for name in rungs}
    turns = list(rungs.items())
    for k in range(PASSES):
        k %= len(turns)
        for name, one_pass in turns[k:] + turns[:k]:
            out[name].extend(one_pass())
    return out


def calls(rec: SpanRecorder, name: str, fn, items, per: int = 1):
    """A rung of direct calls: ``fn(item)`` timed one by one, a span
    each (``trace`` = position in the replay order).  ``per`` divides a
    batch call's seconds among its samples."""
    def one_pass() -> list[float]:
        seconds = []
        for pos, item in enumerate(items):
            t0 = perf_counter()
            fn(item)
            t1 = perf_counter()
            rec.record(name, t0, t1, trace=pos)
            seconds.append((t1 - t0) / per)
        return seconds
    return one_pass


def drained(rec: SpanRecorder, name: str, make_iter, n: int):
    """A rung that streams: drain ``make_iter()``, one span per pass,
    seconds per item = pass time over ``n``."""
    def one_pass() -> list[float]:
        t0 = perf_counter()
        for _item in make_iter():
            pass
        t1 = perf_counter()
        rec.record(name, t0, t1)
        return [(t1 - t0) / n]
    return one_pass


def groups_of(order: list) -> list[list]:
    return [order[i:i + BATCH_SIZE] for i in range(0, len(order), BATCH_SIZE)]


def med_ms(seconds) -> float:
    return common.ms(common.median(seconds))


class EchoClient:
    """Client of ``server.py``'s bare socket echo."""

    def __init__(self, port: int, size: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.request = size.to_bytes(8, "little")
        self.view = memoryview(bytearray(size))

    def ping(self, _item=None) -> None:
        """One round trip: an 8-byte request out, ``size`` bytes back."""
        self.sock.sendall(self.request)
        got = 0
        while got < len(self.view):
            k = self.sock.recv_into(self.view[got:])
            if not k:
                raise ConnectionError("echo server closed the socket")
            got += k

    def close(self) -> None:
        self.sock.close()


# -- the traced run ----------------------------------------------------------


def merge(phases: list[Rounds]) -> Rounds:
    """Several series of timed rounds of one kind as one."""
    out = Rounds(next_epoch=phases[-1].next_epoch)
    for ph in phases:
        out.reads += ph.reads
        out.rates += ph.rates
        out.cpu_ms += ph.cpu_ms
        out.gaps += ph.gaps
        out.first_batch += ph.first_batch
    out.wait_frac = common.median([ph.wait_frac for ph in phases])
    return out


def run_traced(w: Workload, seconds: float, setup_phases: dict,
               out_dir: Path) -> dict:
    rec = SpanRecorder()
    tally = Tally()
    m: dict = {}  # metric name -> (value, unit, n)

    # 1. timed rounds (measure.timed_rounds) without and with proxies at
    # both seams, taking turns so that machine drift hits both alike
    identity = w.wrap_source
    proxies = (lambda source: TracedSource(source, rec),
               traced_plugin(w.plugin, rec))
    on_batch = batch_spans(rec)

    def instrument(on: bool) -> None:
        w.wrap_source, w.loader_plugin = proxies if on else (identity, w.plugin)
        w.loader = w.make_loader()

    plain_phases, traced_phases = [], []
    epoch = FIRST_TIMED_EPOCH
    w.begin_timed()
    try:
        for _ in range(TURNS):
            for on, phases in ((False, plain_phases), (True, traced_phases)):
                instrument(on)
                phases.append(timed_rounds(
                    w, seconds * ROUNDS_SHARE / TURNS, tally,
                    first_epoch=epoch, on_batch=on_batch if on else None))
                epoch = phases[-1].next_epoch
    finally:
        w.end_timed()
        instrument(False)
        rec.root = None
    plain, traced = merge(plain_phases), merge(traced_phases)
    span_summary = summarize(rec.spans)
    m["trace.overhead_frac"] = (
        1.0 - traced.samples_per_s / plain.samples_per_s, "frac",
        len(traced.rates))
    m["loader.first_batch_ms"] = (
        med_ms(plain.first_batch), "ms", len(plain.first_batch))
    m["loader.batch_wait_p50_ms"] = (med_ms(plain.gaps), "ms", len(plain.gaps))
    m["loader.batch_wait_p95_ms"] = (
        common.ms(common.percentile(plain.gaps, 95)), "ms", len(plain.gaps))
    m["executor.wait_frac"] = (plain.wait_frac, "frac", len(plain.rates))
    m["fetch.read_p95_ms"] = (
        common.ms(common.percentile(plain.reads, 95)), "ms", len(plain.reads))

    # 2. the ladder
    rungs = ladder(w, rec, m, plain)
    for phase, value in setup_phases.items():
        m[f"setup.{phase}_s"] = (value, "s", 1)

    verify(w, tally)
    problems = check_parents(rec.spans)
    tally.attempted += 1
    tally.failed += bool(problems)
    rec.write_jsonl(out_dir / f"spans-{w.name}.jsonl")
    return {
        "metrics": m, "attempted": tally.attempted, "failed": tally.failed,
        "extra": {"ladder": rungs, "span_summary": span_summary,
                  "span_problems": problems[:10]},
    }


def ladder(w: Workload, rec: SpanRecorder, m: dict, plain) -> list[dict]:
    """Replay one index order through every rung; fill ``m``."""
    local = w.local_source()
    order = w.epoch_order(LADDER_EPOCH)[: w.p["ladder_samples"]].tolist()
    order = order[: max(BATCH_SIZE, len(order) // BATCH_SIZE * BATCH_SIZE)]
    n = len(order)
    blobs = [w.blob_of(i) for i in order]
    stored = float(np.mean([len(b) for b in blobs]))
    verify_reads = bool(w.loader_kwargs.get("verify_reads", False))
    loader = w.make_loader(order_fn=lambda epoch: np.asarray(order))
    pipe = loader.pipeline

    # -- every local rung: bytes in memory, the workload's local source,
    # its own pipeline, the executor (as configured, and serial) and the
    # loader.  Trailing partial batches would skew per-sample batch
    # costs, so the order is cut to whole batches.
    dst = np.empty(max(len(b) for b in blobs), dtype=np.uint8)
    ex = loader.executor
    serial = PrefetchExecutor(
        pipe, num_workers=0, prefetch_depth=ex.prefetch_depth,
        fetch_batch_size=ex.fetch_batch_size)
    positions = range(n)
    groups = groups_of(list(positions))
    B = BATCH_SIZE
    t = passes({
        "ref.memcpy": calls(rec, "ref.memcpy", lambda p: np.copyto(
            dst[: len(blobs[p])], np.frombuffer(blobs[p], dtype=np.uint8)),
            positions),
        "ref.crc32": calls(
            rec, "ref.crc32", lambda p: zlib.crc32(blobs[p]), positions),
        "container.verify": calls(
            rec, "container.verify", lambda p: verify_sample(blobs[p]),
            positions),
        "container.unpack": calls(
            rec, "container.unpack", lambda p: unpack_sample(blobs[p]),
            positions),
        "plugins.decode": calls(
            rec, "plugins.decode", lambda p: w.plugin.decode(blobs[p]),
            positions),
        "plugins.decode_batch": calls(
            rec, "plugins.decode_batch",
            lambda g: w.plugin.decode_batch([blobs[p] for p in g]),
            groups, per=B),
        "sources.read": calls(
            rec, "sources.read", lambda p: local.read(order[p]), positions),
        "sources.read_batch": calls(
            rec, "sources.read_batch",
            lambda g: read_batch_slots(local, [order[p] for p in g]),
            groups, per=B),
        "pipeline.run": calls(
            rec, "pipeline.run", lambda p: pipe.run(order[p], LADDER_EPOCH),
            positions),
        "pipeline.run_batch": calls(
            rec, "pipeline.run_batch",
            lambda g: pipe.run_batch([order[p] for p in g], LADDER_EPOCH),
            groups, per=B),
        "executor.serial": drained(
            rec, "executor.serial",
            lambda: serial.run(order, LADDER_EPOCH), n),
        "executor.run": drained(
            rec, "executor.run", lambda: ex.run(order, LADDER_EPOCH), n),
        "loader.batches": drained(
            rec, "loader.batches", lambda: loader.batches(LADDER_EPOCH), n),
    })
    ms = {name: med_ms(seconds) for name, seconds in t.items()}
    decoded = w.plugin.decode(blobs[0])[0]
    m["ref.memcpy_mb_per_s"] = (
        stored / 1e3 / ms["ref.memcpy"], "MB/s", len(t["ref.memcpy"]))
    m["ref.crc32_mb_per_s"] = (
        stored / 1e3 / ms["ref.crc32"], "MB/s", len(t["ref.crc32"]))
    m["container.stored_bytes"] = (stored, "B", n)
    m["plugins.decode_mb_per_s"] = (
        decoded.nbytes / 1e3 / ms["plugins.decode"], "MB/s",
        len(t["plugins.decode"]))
    m["plugins.encode_ms"] = (med_ms(w.encode_s), "ms", len(w.encode_s))
    m["plugins.compression_ratio"] = (w.raw_bytes / stored, "ratio", n)
    for name in ("container.verify", "container.unpack", "plugins.decode",
                 "plugins.decode_batch", "sources.read", "sources.read_batch",
                 "pipeline.run", "pipeline.run_batch"):
        m[f"{name}_ms"] = (ms[name], "ms", len(t[name]))
    m["pipeline.self_ms"] = (
        ms["pipeline.run"] - ms["sources.read"] - ms["plugins.decode"]
        - (ms["container.verify"] if verify_reads else 0.0), "ms", n)
    m["executor.items_per_s"] = (1e3 / ms["executor.run"], "1/s", n)
    m["executor.self_ms"] = (
        ms["executor.serial"] - ms[
            "pipeline.run_batch" if ex.fetch_batch_size > 1
            else "pipeline.run"], "ms", n)
    m["executor.speedup_vs_serial"] = (
        ms["executor.serial"] / ms["executor.run"], "ratio", n)
    m["loader.self_ms"] = (
        ms["loader.batches"] - ms["executor.run"], "ms", n)

    # -- graph compiler
    compile_s, plan = [], None
    for _ in range(5):
        t0 = perf_counter()
        plan = compile_graph(w.plugin.declare_preprocessing(
            w.source, verify_reads=verify_reads))
        compile_s.append(perf_counter() - t0)
    m["graph.compile_ms"] = (med_ms(compile_s), "ms", len(compile_s))
    m["graph.plan_ops"] = (len(plan.ops), "count", 1)

    # -- wire framing without a socket: sender CRC, receiver CRC + parse
    def frame(blob):
        return protocol.frame_parts(
            protocol.ST_OK,
            protocol.batch_reply_parts([(protocol.SLOT_OK, blob)]))

    def unframe(body):
        zlib.crc32(body)
        protocol.unpack_batch_reply(body)

    some = blobs[: max(8, n // 4)]
    bodies = [b"".join(frame(b)[1:-1]) for b in some]  # what a socket carries
    tf = passes({
        "protocol.frame": calls(
            rec, "protocol.frame", lambda p: frame(some[p]), range(len(some))),
        "protocol.unframe": calls(
            rec, "protocol.unframe", lambda p: unframe(bodies[p]),
            range(len(some))),
    })
    m["protocol.frame_ms"] = (
        med_ms(tf["protocol.frame"]) + med_ms(tf["protocol.unframe"]), "ms",
        len(tf["protocol.frame"]))
    del bodies

    # -- the served system: wire, cluster, retry and tier rungs
    wire = wire_rungs(w, rec, m)

    # -- ingest, unloaded (and under load where the workload has a writer)
    ingest_rung(w, rec, m)

    # -- the table: cost added over the rung below, per chain
    chain = [("memcpy", ms["ref.memcpy"])] + [
        (name, ms[name]) for name in (
            "container.verify", "container.unpack", "plugins.decode",
            "pipeline.run", "executor.run", "loader.batches")
    ]
    rungs = []
    for chain_rungs in (chain, wire):
        below = 0.0
        for name, value in chain_rungs:
            rungs.append({
                "name": name, "ms": value, "rate": 1e3 / value,
                "mbps": stored / 1e3 / value, "added_ms": value - below,
            })
            below = value
    # the local chain's added costs sum to its top rung: set that against
    # the end-to-end time per sample of the plain timed rounds
    m["ladder.closure_frac"] = (
        ms["loader.batches"] / (1e3 / plain.samples_per_s), "frac", n)
    return rungs


def wire_rungs(w: Workload, rec: SpanRecorder, m: dict) -> list:
    """Echo floor, ``RemoteSource``, ``ClusterSource``, retry and tiers.

    ``cluster_fetch`` already stands on the served system; for the other
    workloads their blobs are staged behind a ``server.py`` of their own.
    """
    n_blobs = len(w.blobs)
    rig, own_rig = w.rig, w.rig is None
    record = w.record or write_record_file(w.dir / "ladder.rec", w.blobs)
    if own_rig:
        rig = ClusterRig(record, w.dir / "ladder-nvme", len(w.blobs[0]),
                         n_blobs, timing=True)
    closers = []
    try:
        cluster = ClusterSource(rig.dispatcher, seed=w.seed)
        closers.append(cluster)
        rig.call("status")  # drain the server's timing proxies
        end_epoch_ms = rig.settle(cluster, n_blobs)
        # which worker the client sends each index to, as the server saw it
        owner = {}
        for k, served in enumerate(rig.call("status")["tiered"]):
            owner.update({index: k for index, _ in served})
        remotes = [RemoteSource(*address) for address in rig.workers]
        closers.extend(remotes)
        echo = EchoClient(rig.echo_port, rig.echo_bytes)
        closers.append(echo)
        retrying = RetryingSource(cluster, verify=True, seed=w.seed)

        rng = np.random.default_rng([w.seed, 0xB])
        want = w.p["ladder_samples"]
        order = np.concatenate([
            rng.permutation(n_blobs) for _ in range(-(-want // n_blobs))
        ])[:want].tolist()
        n = len(order)
        index = build_index(record)
        groups = groups_of(order)
        by_owner = [[i for i in g if owner[i] == k]
                    for g in groups for k in range(len(remotes))]
        by_owner = [g for g in by_owner if g]
        host, port = rig.dispatcher
        with open(record, "rb") as fh:
            def file_read(i):  # plain read() of the record file
                offset, length = index[i]
                fh.seek(offset)
                fh.read(length)

            t = passes({
                "ref.file_read": calls(rec, "ref.file_read", file_read, order),
                "ref.loopback": calls(rec, "ref.loopback", echo.ping, order),
                "serve.rpc": calls(
                    rec, "serve.rpc", lambda i: remotes[owner[i]].read(i),
                    order),
                "cluster.read": calls(
                    rec, "cluster.read", cluster.read, order),
                "robust.retry": calls(
                    rec, "robust.retry", retrying.read, order),
            })
        rpc_batch_s = [
            seconds / len(g) for g in by_owner for seconds in calls(
                rec, "serve.rpc_batch",
                lambda g: remotes[owner[g[0]]].read_batch_slots(g), [g])()
        ]
        route_s = calls(
            rec, "cluster.route",
            lambda _: dispatcher_call(host, port, protocol.OP_ROUTE),
            range(ROUTE_CALLS))()
        status = rig.call("status")

        stored = float(np.mean([len(w.blobs[i]) for i in order]))
        rpc_ms, cluster_ms = med_ms(t["serve.rpc"]), med_ms(t["cluster.read"])
        m["ref.file_read_mb_per_s"] = (
            stored / 1e6 / common.median(t["ref.file_read"]), "MB/s", n)
        m["ref.loopback_mb_per_s"] = (
            rig.echo_bytes / 1e6 / common.median(t["ref.loopback"]), "MB/s", n)
        # every timed read above is the same server-side operation: one
        # TieredSource.read on the owning worker
        tiered_s = [s for served in status["tiered"] for _, s in served]
        backing_s = [s for served in status["backing"] for _, s in served]
        m["serve.rpc_ms"] = (rpc_ms, "ms", n)
        m["serve.rpc_batch_ms"] = (
            med_ms(rpc_batch_s), "ms", len(rpc_batch_s))
        m["serve.server_read_ms"] = (med_ms(tiered_s), "ms", len(tiered_s))
        m["serve.wire_self_ms"] = (rpc_ms - med_ms(tiered_s), "ms", n)
        m["serve.vs_loopback_frac"] = (
            med_ms(t["ref.loopback"]) / rpc_ms, "frac", n)
        m["cluster.read_ms"] = (cluster_ms, "ms", n)
        m["cluster.read_p99_ms"] = (
            common.ms(common.percentile(t["cluster.read"], 99)), "ms", n)
        m["cluster.self_ms"] = (cluster_ms - rpc_ms, "ms", n)
        m["cluster.route_ms"] = (med_ms(route_s), "ms", ROUTE_CALLS)
        counts = cluster.stats.snapshot()
        for key in ("failovers", "busy_sheds"):
            m[f"cluster.{key}"] = (
                counts.get(f"cluster.{key}", (0, 0.0))[0], "count", n)
        m["robust.retry_self_ms"] = (
            med_ms(t["robust.retry"]) - cluster_ms, "ms", n)
        m["tiering.read_ms"] = (med_ms(tiered_s), "ms", len(tiered_s))
        m["tiering.self_ms"] = (
            med_ms(tiered_s) - common.ms(sum(backing_s) / len(tiered_s)),
            "ms", len(tiered_s))
        tiers = status["tiers"]
        m["tiering.hit_rate"] = (
            float(np.mean([tier["hit_rate"] for tier in tiers])), "frac",
            len(tiers))
        m["tiering.promotions"] = (
            sum(tier["promotions"] for tier in tiers), "count", len(tiers))
        m["tiering.end_epoch_ms"] = (
            common.median(end_epoch_ms), "ms", len(end_epoch_ms))
        return [
            ("socket echo", med_ms(t["ref.loopback"])),
            ("serve.rpc", rpc_ms), ("cluster.read", cluster_ms),
            ("robust.retry", med_ms(t["robust.retry"])),
        ]
    finally:
        for closer in closers:
            closer.close()
        if own_rig:
            rig.close()


def ingest_rung(w: Workload, rec: SpanRecorder, m: dict) -> None:
    """``IngestWriter.append``/``publish`` and ``ManifestSource.read``
    on a scratch directory, open loop at a fixed rate with nothing else
    running.  A workload with a live writer reports its *loaded* append
    and generator numbers in place of the unloaded ones."""
    root = w.dir / "ladder-ingest"
    writer = IngestWriter(root, fingerprint={"plugin": w.name})
    try:
        unloaded = Appender(
            writer, lambda i: w.blobs[i % len(w.blobs)], INGEST_HZ,
            INGEST_APPENDS // 2)
        t0 = perf_counter()
        unloaded.run(INGEST_APPENDS)
        rec.record("ingest.appends", t0, perf_counter())
        manifest = writer.publish()
        with ManifestSource(root, manifest) as source:
            read_s = calls(rec, "ingest.manifest_read", source.read,
                           range(len(source)))()
        on_disk = sum(f.stat().st_size for f in root.rglob("*")
                      if f.is_file())
    finally:
        writer.close()
    loaded = w.appender or unloaded
    m["ingest.append_ms"] = (
        med_ms(unloaded.service_s), "ms", len(unloaded.service_s))
    m["ingest.append_p95_ms"] = (
        common.ms(common.percentile(loaded.from_due_s, 95)), "ms",
        len(loaded.from_due_s))
    m["ingest.generator_late_p95_ms"] = (
        common.ms(common.percentile(loaded.late_s, 95)), "ms",
        len(loaded.late_s))
    m["ingest.publish_p50_ms"] = (
        med_ms(loaded.publish_s), "ms", len(loaded.publish_s))
    m["ingest.manifest_read_ms"] = (med_ms(read_s), "ms", len(read_s))
    m["ingest.disk_bytes_per_user_byte"] = (
        on_disk / unloaded.appended_bytes, "ratio", INGEST_APPENDS)
