"""Command-line tools: generate, encode, inspect, analyze.

``python -m repro.cli <command>`` gives the library a shell-level surface
for the common dataset chores:

* ``generate``  — write a synthetic CosmoFlow/DeepCAM dataset to a
  TFRecord-style file, raw or plugin-encoded (optionally gzip).
* ``inspect``   — print a record file's per-sample codec, sizes, shapes.
* ``analyze``   — Fig-5-style compressibility statistics for a record file.
* ``bench``     — time decode throughput of a record file on this machine.
* ``stats``     — codec-level statistics of encoded samples (line modes,
  table sizes, compression); ``--all`` instead emits one merged
  document over every subsystem (loader, pipeline, tiers, remote
  server, cluster, ingest) with a stable key schema.
* ``verify``    — integrity-check every container in a record file
  (container-v2 CRC32s); non-zero exit when corruption is found.
* ``chaos``     — run epochs over a record file under seeded fault
  injection with retries and a bad-sample policy; prints the retry and
  quarantine report.
* ``tune``      — cost-model-driven search for the fastest pipeline
  configuration on a simulated machine (``repro.tune``); prints the
  winner, the paper's hand-chosen baseline, and the ranked trial log.
* ``vectors``   — generate (once) or verify (always) the golden-vector
  conformance corpus (``repro.conformance.vectors``).
* ``fuzz``      — differential fuzzing of every codec implementation,
  count- or time-budgeted, with crash-corpus save/replay
  (``repro.conformance.fuzzer``); non-zero exit on any disagreement.
* ``serve``     — run a :class:`repro.serve.DataServer` over a record
  file (or, with ``--ingest-dir``, over a live ingest directory with
  manifest-pinned epoch coordination): networked sample serving with a
  shared verify-before-cache, bounded connections, and shard-aware
  epoch coordination; drains gracefully on SIGINT/SIGTERM.
* ``ingest``    — online ingestion (``repro.ingest``): ``append``
  encodes deterministic synthetic samples into an append-only shard
  directory (publishing snapshot manifests as it goes), ``status``
  reports committed/torn bytes and the manifest history, ``recover``
  truncates torn shard tails after a crash.
* ``manifest``  — inspect the snapshot-manifest history of an ingest
  directory: ``list`` the published chain, ``show`` one manifest,
  ``verify`` a manifest against the shard bytes on disk (non-zero exit
  on mismatch).
* ``fetch``     — client of a running server: health/info/stats probes,
  sample fetches by explicit indices or by ``EPOCH``-coordinated shard,
  optional integrity verification and record-file export.
* ``cluster``   — fault-tolerant serving fleet (``repro.cluster``):
  ``start`` runs a dispatcher plus N replicated workers over a record
  file (draining gracefully on SIGINT/SIGTERM), ``status`` prints a
  running dispatcher's membership/lease/routing view, ``drain`` removes
  one worker from the routing table without dropping in-flight clients.
* ``tiers``     — drive a record file through a RAM → NVMe tier
  hierarchy (``repro.tiering``) for a few probe epochs, migrating hot
  samples between them, then report ``status`` (per-level hit rates and
  counters), ``plan`` (the pending migration moves) or ``migrate`` (one
  more applied cycle).
* ``graph``     — the preprocessing-graph compiler (``repro.graph``):
  ``show`` prints a workload's declared preprocessing DAG (nodes,
  attributes, derived conflict edges); ``optimize`` compiles the naive
  and optimized plans side by side with the pass trace and cost terms,
  and with ``--check`` differentially executes both over the record
  file, exiting non-zero unless every surviving sample is bit-identical.

* ``trace``     — the observability plane (``repro.observe``):
  ``record`` runs traced epochs over a record file and writes the
  per-sample span trees to a trace JSON file; ``export`` renders a
  trace file as a ``chrome://tracing`` timeline, flamegraph.pl folded
  stacks, or a text tree; ``top`` prints the per-span-name time table
  from a trace file or scraped live from a running server's METRICS op.

``bench``, ``stats``, ``tune``, ``vectors verify``, ``fuzz``, ``serve``,
``fetch``, ``cluster``, ``tiers``, ``graph``, ``ingest``, ``manifest``
and ``trace`` accept ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.encoding import analysis, container
from repro.core.plugins import (
    CosmoflowBaselinePlugin,
    CosmoflowLutPlugin,
    DeepcamBaselinePlugin,
    DeepcamDeltaPlugin,
)
from repro.datasets import cosmoflow, deepcam
from repro.experiments.harness import print_table
from repro.storage import tfrecord

__all__ = ["main"]

_PLUGINS = {
    ("cosmoflow", "base"): CosmoflowBaselinePlugin,
    ("cosmoflow", "plugin"): lambda: CosmoflowLutPlugin("cpu"),
    ("deepcam", "base"): DeepcamBaselinePlugin,
    ("deepcam", "plugin"): lambda: DeepcamDeltaPlugin("cpu"),
}


def _make_plugin(workload: str, representation: str):
    factory = _PLUGINS.get((workload, representation))
    if factory is None:
        raise SystemExit(
            f"no {representation!r} representation for {workload!r}"
        )
    return factory()


def cmd_generate(args) -> int:
    plugin = _make_plugin(args.workload, args.representation)
    if args.workload == "cosmoflow":
        cfg = cosmoflow.CosmoflowConfig(grid=args.size)
        samples = cosmoflow.generate_dataset(args.count, cfg, seed=args.seed)
    else:
        cfg = deepcam.DeepcamConfig(height=args.size, width=args.size + args.size // 2)
        samples = deepcam.generate_dataset(args.count, cfg, seed=args.seed)
    compression = "gzip" if args.gzip else None
    with tfrecord.TfRecordWriter(args.output, compression=compression) as w:
        for s in samples:
            w.write(plugin.encode(s.data, s.label))
    size = Path(args.output).stat().st_size
    print(
        f"wrote {args.count} {args.workload}/{args.representation} samples "
        f"to {args.output} ({size / 1e6:.2f} MB"
        f"{', gzip' if args.gzip else ''})"
    )
    return 0


def _iter_samples(path: str, gzip_flag: bool):
    compression = "gzip" if gzip_flag else None
    yield from tfrecord.iter_records(path, compression)


def cmd_inspect(args) -> int:
    rows = []
    total = 0
    for i, blob in enumerate(_iter_samples(args.input, args.gzip)):
        codec, payload, label, _ = container.unpack_sample(blob)
        if codec == "raw":
            shape = tuple(payload.shape)
        elif codec == "delta":
            shape = (len(payload),) + payload[0].shape
        else:
            shape = payload.shape
        rows.append([i, codec, str(shape), len(blob), str(label.dtype)])
        total += len(blob)
    print_table(["sample", "codec", "shape", "bytes", "label dtype"], rows)
    print(f"total: {len(rows)} samples, {total / 1e6:.2f} MB")
    return 0


def cmd_analyze(args) -> int:
    rows = []
    for i, blob in enumerate(_iter_samples(args.input, args.gzip)):
        codec, payload, _, _ = container.unpack_sample(blob)
        if codec != "raw":
            raise SystemExit("analyze expects raw (baseline) containers")
        st = analysis.analyze_cosmoflow_sample(payload)
        rows.append(
            [i, st.n_unique_values, st.n_unique_groups,
             f"{st.powerlaw_slope:.2f}",
             "yes" if st.keys_fit_16bit else "NO"]
        )
    print_table(
        ["sample", "unique values", "unique groups", "slope", "16-bit keys"],
        rows,
    )
    return 0


def cmd_bench(args) -> int:
    plugin = _make_plugin(args.workload, args.representation)
    blobs = list(_iter_samples(args.input, args.gzip))
    if not blobs:
        raise SystemExit("no records in input")
    t0 = time.perf_counter()
    decoded_bytes = 0
    for blob in blobs:
        tensor, _ = plugin.decode(blob)
        decoded_bytes += tensor.nbytes
    dt = time.perf_counter() - t0
    if args.json:
        print(json.dumps({
            "workload": args.workload,
            "representation": args.representation,
            "samples": len(blobs),
            "elapsed_s": dt,
            "samples_per_s": len(blobs) / dt,
            "decoded_bytes": decoded_bytes,
            "decoded_mb_per_s": decoded_bytes / dt / 1e6,
        }, indent=2))
        return 0
    print(
        f"decoded {len(blobs)} samples in {dt:.3f}s — "
        f"{len(blobs) / dt:.1f} samples/s, "
        f"{decoded_bytes / dt / 1e6:.1f} MB/s decoded"
    )
    return 0


def _pipeline_counters(args, blobs) -> dict:
    """Run one graph-compiled epoch and collect ``pipeline.*`` counters."""
    from repro.pipeline import DataLoader, ListSource

    plugin = _make_plugin(args.workload, args.representation)
    loader = DataLoader(
        ListSource(blobs), plugin, batch_size=2, shuffle=False, graph=True
    )
    for _ in loader.batches(0):
        pass
    return {
        name: {"count": n, "seconds": seconds}
        for name, (n, seconds) in sorted(loader.stats.snapshot().items())
        if name.startswith("pipeline.")
    }


_MERGED_STATS_KEYS = (
    "loader", "pipeline", "tiers", "remote", "cluster", "ingest"
)


def _merged_stats(args) -> dict:
    """One document over every subsystem (``repro stats --all``).

    The key schema is stable: every subsystem key is always present,
    ``null`` when that subsystem was not probed — so dashboards can
    index ``doc["cluster"]["workers"]`` without existence checks.
    Local sections (loader/pipeline) need ``--workload``; tiers need
    ``--tiers``; remote/cluster/ingest attach to running systems via
    ``--port`` / ``--dispatcher-port`` / ``--ingest-dir``.
    """
    from repro.pipeline import DataLoader, ListSource

    blobs = list(_iter_samples(args.input, args.gzip))
    out: dict = {
        "schema": 1,
        "input": args.input,
        "samples": {
            "n": len(blobs),
            "bytes": sum(len(b) for b in blobs),
        },
        **{key: None for key in _MERGED_STATS_KEYS},
    }
    if args.workload:
        plugin = _make_plugin(args.workload, args.representation)
        loader = DataLoader(
            ListSource(blobs), plugin, batch_size=2, shuffle=False,
            graph=True,
        )
        for _ in loader.batches(0):
            pass
        snap = loader.stats.snapshot()

        def section(prefixes: set) -> dict:
            return {
                name: {"count": n, "seconds": seconds}
                for name, (n, seconds) in sorted(snap.items())
                if name.split(".", 1)[0] in prefixes
            }

        out["loader"] = section({"loader", "executor", "cache", "source",
                                 "retry"})
        out["pipeline"] = section({"pipeline"})
    if args.tiers:
        out["tiers"] = _probe_tiers(args).status()
    if args.port:
        from repro.serve import RemoteSource

        try:
            with RemoteSource(
                args.host, args.port, timeout_s=args.timeout_s
            ) as src:
                out["remote"] = src.metrics()
        except OSError as exc:
            raise SystemExit(f"cannot reach {args.host}:{args.port}: {exc}")
    if args.dispatcher_port:
        from repro.cluster.dispatcher import dispatcher_call
        from repro.serve import protocol

        try:
            out["cluster"] = dispatcher_call(
                args.host, args.dispatcher_port, protocol.OP_LEASE,
                {"action": "status"}, timeout_s=args.timeout_s,
            )
        except OSError as exc:
            raise SystemExit(
                f"cannot reach dispatcher {args.host}:"
                f"{args.dispatcher_port}: {exc}"
            )
    if args.ingest_dir:
        out["ingest"] = _ingest_status(Path(args.ingest_dir))
    return out


def cmd_stats(args) -> int:
    from repro.core.encoding.delta import LINE_CONST, LINE_DELTA, LINE_RAW

    if args.all:
        out = _merged_stats(args)
        if args.json:
            print(json.dumps(out, indent=2))
            return 0
        print(
            f"{out['samples']['n']} sample(s), "
            f"{out['samples']['bytes'] / 1e6:.2f} MB"
        )
        for key in _MERGED_STATS_KEYS:
            sec = out[key]
            print(
                f"{key}: " + ("not probed" if sec is None
                              else f"{len(sec)} key(s)")
            )
        return 0

    rows = []
    records = []
    blobs = list(_iter_samples(args.input, args.gzip))
    for i, blob in enumerate(blobs):
        codec, payload, _, _ = container.unpack_sample(blob)
        if codec == "delta":
            modes = np.concatenate([c.line_modes for c in payload])
            hist = np.bincount(modes, minlength=3)
            decoded = sum(2 * c.shape[0] * c.shape[1] for c in payload)
            rows.append([
                i, "delta",
                f"C:{hist[LINE_CONST]} D:{hist[LINE_DELTA]} "
                f"R:{hist[LINE_RAW]}",
                f"{decoded / len(blob):.2f}x vs fp16",
            ])
            records.append({
                "sample": i, "codec": "delta", "bytes": len(blob),
                "lines_const": int(hist[LINE_CONST]),
                "lines_delta": int(hist[LINE_DELTA]),
                "lines_raw": int(hist[LINE_RAW]),
                "compression_vs_fp16": decoded / len(blob),
            })
        elif codec == "lut":
            keys = sum(t.keys.nbytes for t in payload.tables)
            tables = sum(t.values.nbytes for t in payload.tables)
            rows.append([
                i, "lut",
                f"{payload.n_groups_total} groups, "
                f"{len(payload.tables)} table(s)",
                f"keys {keys}B + tables {tables}B",
            ])
            records.append({
                "sample": i, "codec": "lut", "bytes": len(blob),
                "groups": int(payload.n_groups_total),
                "tables": len(payload.tables),
                "key_bytes": int(keys), "table_bytes": int(tables),
            })
        else:
            rows.append([i, "raw", "-", f"{len(blob)}B"])
            records.append({"sample": i, "codec": "raw", "bytes": len(blob)})
    pipeline = None
    if args.pipeline:
        if not args.workload:
            raise SystemExit("--pipeline needs --workload")
        pipeline = _pipeline_counters(args, blobs)
    if args.json:
        out = {"input": args.input, "samples": records}
        if args.tiers:
            out["tiers"] = _probe_tiers(args).status()
        if pipeline is not None:
            out["pipeline"] = pipeline
        print(json.dumps(out, indent=2))
        return 0
    print_table(["sample", "codec", "structure", "size detail"], rows)
    if args.tiers:
        _print_tier_status(_probe_tiers(args).status())
    if pipeline is not None:
        print_table(
            ["stage", "items", "seconds"],
            [
                [name.removeprefix("pipeline."), c["count"],
                 f"{c['seconds']:.4f}"]
                for name, c in pipeline.items()
            ],
        )
    return 0


def cmd_verify(args) -> int:
    rows = []
    bad = 0
    samples = enumerate(_iter_samples(args.input, args.gzip))
    while True:
        try:
            i, blob = next(samples)
        except StopIteration:
            break
        except ValueError as exc:
            # the record framing itself is damaged; nothing after this
            # point in the file can be trusted, so report and stop
            bad += 1
            rows.append([len(rows), "?", "CORRUPT (record framing)"])
            if args.verbose:
                print(f"record framing: {exc}", file=sys.stderr)
            break
        try:
            version = container.verify_sample(blob, sample_id=i)
        except ValueError as exc:  # includes CorruptSampleError
            bad += 1
            section = getattr(exc, "section", "structure") or "structure"
            rows.append([i, "?", f"CORRUPT ({section})"])
            if args.verbose:
                print(f"sample {i}: {exc}", file=sys.stderr)
        else:
            rows.append([i, f"v{version}",
                         "ok" if version >= 2 else "ok (no checksums)"])
    print_table(["sample", "format", "integrity"], rows)
    print(f"{len(rows)} samples, {bad} corrupt")
    return 1 if bad else 0


def cmd_chaos(args) -> int:
    from repro.pipeline import DataLoader, ListSource
    from repro.robust import (
        FaultInjector,
        FaultPlan,
        RetryingSource,
        RetryPolicy,
    )

    plugin = _make_plugin(args.workload, args.representation)
    blobs = list(_iter_samples(args.input, args.gzip))
    if not blobs:
        raise SystemExit("no records in input")
    try:
        corrupt_ids = frozenset(
            int(t) for t in args.corrupt.split(",") if t.strip() != ""
        )
    except ValueError:
        raise SystemExit(
            f"--corrupt expects a comma-separated list of sample ids, "
            f"got {args.corrupt!r}"
        )
    try:
        plan = FaultPlan(
            io_error_rate=args.io_error_rate,
            truncate_rate=args.truncate_rate,
            bitflip_rate=args.bitflip_rate,
            latency_rate=args.latency_rate,
            latency_s=args.latency_s,
            corrupt_ids=corrupt_ids,
            seed=args.seed,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid fault plan: {exc}")
    injector = FaultInjector(ListSource(blobs), plan)
    source = RetryingSource(
        injector,
        RetryPolicy(
            max_attempts=args.retries,
            base_delay_s=args.backoff_s,
            timeout_s=args.read_timeout_s,
        ),
        verify=True,
        seed=args.seed,
    )
    loader = DataLoader(
        source,
        plugin,
        batch_size=args.batch_size,
        shuffle=True,
        seed=args.seed,
        num_workers=args.workers,
        bad_sample_policy=args.policy,
        verify_reads=True,
    )
    n_batches = n_samples = 0
    try:
        for epoch in range(args.epochs):
            for batch, _ in loader.batches(epoch):
                n_batches += 1
                n_samples += batch.shape[0]
    except Exception as exc:
        idx = getattr(exc, "sample_index", "?")
        print(f"epoch aborted at sample {idx}: {exc}", file=sys.stderr)
        return 1
    finally:
        rs, fs = source.stats, injector.stats
        print(
            f"chaos: {n_samples} samples / {n_batches} batches over "
            f"{args.epochs} epoch(s) [policy={args.policy}]"
        )
        print(
            f"faults injected: {dict(fs.injected) or 'none'} "
            f"over {fs.reads} reads"
        )
        print(
            f"retries: {rs.retries}, aborts: {rs.aborts}, "
            f"verify failures: {rs.verify_failures}, "
            f"backoff {rs.backoff_seconds * 1e3:.1f} ms"
        )
        print(loader.quarantine.report())
    return 0


def cmd_serve(args) -> int:
    import signal
    import threading

    from repro.pipeline.sources import ListSource, TfRecordSource
    from repro.serve import DataServer
    from repro.storage.cache import SampleCache

    coordinator = None
    manifest_store = None
    if args.ingest_dir:
        if args.input:
            raise SystemExit("pass either --input or --ingest-dir, not both")
        from repro.ingest import (
            LiveIngestSource,
            ManifestEpochCoordinator,
            ManifestStore,
        )

        source = LiveIngestSource(args.ingest_dir)
        manifest_store = ManifestStore(args.ingest_dir)
        coordinator = ManifestEpochCoordinator(
            manifest_store, world_size=args.world_size, seed=args.seed
        )
    elif not args.input:
        raise SystemExit("one of --input or --ingest-dir is required")
    elif args.gzip:
        # gzip permits only sequential access: materialize, then serve
        source = ListSource(list(_iter_samples(args.input, True)))
    else:
        source = TfRecordSource(args.input)
    if len(source) == 0 and not args.ingest_dir:
        raise SystemExit("no records in input")
    cache = (
        SampleCache(args.cache_mb * 1e6) if args.cache_mb > 0 else None
    )
    recorder = None
    if args.trace:
        from repro.observe import TraceRecorder

        recorder = TraceRecorder(
            sample_rate=args.trace_sample_rate, seed=args.seed,
            proc="server",
        )
    server = DataServer(
        source,
        host=args.host,
        port=args.port,
        cache=cache,
        verify=True if args.verify else None,
        max_connections=args.max_connections,
        world_size=args.world_size,
        seed=args.seed,
        coordinator=coordinator,
        manifest_store=manifest_store,
        service_delay_s=args.service_delay_ms / 1e3,
        trace=recorder,
    )
    server.start()
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, lambda *_: stop.set())
        except ValueError:  # not the main thread (tests)
            pass
    info = {**server.info(), "host": server.address[0],
            "port": server.address[1]}
    if args.json:
        print(json.dumps(info), flush=True)
    else:
        print(
            f"serving {info['n_samples']} samples on "
            f"{info['host']}:{info['port']} "
            f"(world_size={info['world_size']}, "
            f"cache={'%.0f MB' % args.cache_mb if cache is not None else 'off'}, "
            f"max_connections={args.max_connections}) — Ctrl-C to drain",
            flush=True,
        )
    stop.wait(timeout=args.duration_s)
    server.close(drain=True)
    snap = server.stats.snapshot()
    reads, read_s = snap.get("serve.read", (0, 0.0))
    _, read_bytes = snap.get("serve.read.bytes", (0, 0.0))
    summary = {
        "reads": reads,
        "read_seconds": read_s,
        "read_bytes": int(read_bytes),
        "connections": snap.get("serve.connections", (0, 0.0))[0],
        "errors": snap.get("serve.errors", (0, 0.0))[0],
    }
    if args.json:
        print(json.dumps({"drained": True, **summary}))
    else:
        print(
            f"drained: served {summary['reads']} reads "
            f"({summary['read_bytes'] / 1e6:.2f} MB) over "
            f"{summary['connections']} connection(s), "
            f"{summary['errors']} error(s)"
        )
    return 0


def cmd_fetch(args) -> int:
    from repro.serve import RemoteSource

    try:
        src = RemoteSource(args.host, args.port, timeout_s=args.timeout_s)
    except OSError as exc:
        raise SystemExit(f"cannot reach {args.host}:{args.port}: {exc}")
    with src:
        if args.health or args.stats_only or args.info:
            report = (
                src.health() if args.health
                else src.stats_report() if args.stats_only
                else src.info()
            )
            if args.json:
                print(json.dumps(report, indent=2))
            else:
                for key, val in report.items():
                    print(f"{key}: {val}")
            return 0

        manifest_id = None
        if args.epoch is not None:
            if args.manifest:
                manifest_id, _, shard = src.epoch_shard_manifest(
                    args.rank, args.epoch
                )
                indices = shard.tolist()
            else:
                indices = src.epoch_shard(args.rank, args.epoch).tolist()
        elif args.indices:
            try:
                indices = [int(t) for t in args.indices.split(",") if t.strip()]
            except ValueError:
                raise SystemExit(
                    f"--indices expects comma-separated ints, got "
                    f"{args.indices!r}"
                )
        else:
            indices = list(range(len(src)))

        writer = (
            tfrecord.TfRecordWriter(args.output) if args.output else None
        )
        t0 = time.perf_counter()
        total = 0
        bad = 0
        try:
            for i in indices:
                try:
                    blob = src.read(i)
                except container.CorruptSampleError as exc:
                    # a verifying server refuses the sample outright
                    bad += 1
                    print(f"sample {i}: {exc}", file=sys.stderr)
                    continue
                total += len(blob)
                if args.verify:
                    try:
                        container.verify_sample(blob, sample_id=i)
                    except ValueError as exc:
                        bad += 1
                        print(f"sample {i}: {exc}", file=sys.stderr)
                        continue
                if writer is not None:
                    writer.write(blob)
        finally:
            if writer is not None:
                writer.close()
        dt = time.perf_counter() - t0
        result = {
            "samples": len(indices),
            "bytes": total,
            "elapsed_s": dt,
            "samples_per_s": len(indices) / dt if dt > 0 else 0.0,
            "mb_per_s": total / dt / 1e6 if dt > 0 else 0.0,
            "corrupt": bad,
        }
        if args.epoch is not None:
            result["epoch"] = args.epoch
            result["rank"] = args.rank
        if manifest_id is not None:
            result["manifest_id"] = manifest_id
        if args.output:
            result["output"] = args.output
        if args.json:
            print(json.dumps(result, indent=2))
        else:
            print(
                f"fetched {result['samples']} samples "
                f"({total / 1e6:.2f} MB) in {dt:.3f}s — "
                f"{result['samples_per_s']:.1f} samples/s, "
                f"{result['mb_per_s']:.1f} MB/s"
                + (f", {bad} corrupt" if bad else "")
            )
        return 1 if bad else 0


def _ingest_status(root: Path) -> dict:
    """Committed/torn/manifest counters of an ingest directory.

    Shared by ``repro ingest status`` and ``repro stats --all``.
    """
    from repro.ingest import ManifestStore, scan_shard
    from repro.ingest.writer import _list_shards

    store = ManifestStore(root)
    shards = []
    for path in _list_shards(root):
        scan = scan_shard(path)
        shards.append(
            {
                "name": path.name,
                "n_samples": scan.n_records,
                "committed_bytes": scan.valid_end,
                "torn_bytes": scan.torn_bytes,
            }
        )
    latest = store.latest()
    return {
        "dir": str(root),
        "n_samples": sum(s["n_samples"] for s in shards),
        "n_shards": len(shards),
        "torn_bytes": sum(s["torn_bytes"] for s in shards),
        "manifests": len(store.ids()),
        "latest_manifest": None if latest is None else latest.manifest_id,
        "published_samples": None if latest is None else latest.n_samples,
        "shards": shards,
    }


def cmd_ingest(args) -> int:
    from repro.ingest import IngestWriter, recover_directory

    root = Path(args.dir)

    if args.action == "recover":
        reports = recover_directory(root)
        out = {
            "shards": [
                {
                    "name": r.path.name,
                    "n_records": r.n_records,
                    "truncated_bytes": r.truncated_bytes,
                }
                for r in reports
            ],
            "truncated_bytes": sum(r.truncated_bytes for r in reports),
        }
        if args.json:
            print(json.dumps(out, indent=2))
        else:
            for shard in out["shards"]:
                cut = shard["truncated_bytes"]
                print(
                    f"{shard['name']}: {shard['n_records']} committed "
                    f"record(s)" + (f", truncated {cut} torn byte(s)" if cut
                                    else ", clean")
                )
            print(f"recovered: {out['truncated_bytes']} torn byte(s) removed")
        return 0

    if args.action == "status":
        out = _ingest_status(root)
        if args.json:
            print(json.dumps(out, indent=2))
        else:
            print(
                f"{out['n_samples']} committed sample(s) in "
                f"{out['n_shards']} shard(s), {out['torn_bytes']} torn "
                f"byte(s); {out['manifests']} manifest(s) published"
                + (
                    f", latest {out['latest_manifest'][:12]}… covers "
                    f"{out['published_samples']}"
                    if out["latest_manifest"] is not None
                    else ""
                )
            )
        return 0

    # append: encode deterministic synthetic samples keyed by their
    # global index, so an interrupted run re-invoked with the same seed
    # continues the identical sample sequence (the CI crash smoke
    # depends on this)
    cfg = deepcam.DeepcamConfig(
        height=args.height, width=args.width, n_channels=args.channels
    )
    plugin = DeepcamDeltaPlugin("cpu")
    fingerprint = {
        "dataset": "deepcam",
        "plugin": "deepcam-delta",
        "height": args.height,
        "width": args.width,
        "channels": args.channels,
        "seed": args.seed,
    }
    published: list[str] = []
    with IngestWriter(
        root,
        fingerprint=fingerprint,
        shard_max_bytes=int(args.shard_max_mb * 1e6),
    ) as writer:
        recovered = sum(r.truncated_bytes for r in writer.recovery)
        start = writer.n_samples
        for i in range(start, start + args.count):
            sample = deepcam.generate_sample(
                cfg, seed=np.random.default_rng([args.seed, i])
            )
            writer.append_sample(plugin, sample.data, sample.label)
            done = i - start + 1
            if (
                args.publish_every > 0
                and done % args.publish_every == 0
                and not args.no_publish
            ):
                published.append(writer.publish().manifest_id)
        if not args.no_publish:
            manifest = writer.publish()
            if not published or published[-1] != manifest.manifest_id:
                published.append(manifest.manifest_id)
        if args.torn_tail_bytes > 0:
            # simulate a crash mid-append: leave a partial frame on the
            # open shard tail (repro ingest recover truncates it)
            writer.flush()
            with open(writer._open.path, "ab") as fh:
                fh.write(b"\x6b" * args.torn_tail_bytes)
        out = {
            "appended": args.count,
            "n_samples": writer.n_samples,
            "n_shards": writer.n_shards,
            "recovered_bytes": recovered,
            "published": published,
            "torn_tail_bytes": args.torn_tail_bytes,
        }
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print(
            f"appended {out['appended']} sample(s) "
            f"(now {out['n_samples']} across {out['n_shards']} shard(s)); "
            f"published {len(published)} manifest(s)"
            + (f"; recovered {recovered} torn byte(s)" if recovered else "")
            + (
                f"; left {args.torn_tail_bytes} torn byte(s) on the tail"
                if args.torn_tail_bytes
                else ""
            )
        )
    return 0


def cmd_manifest(args) -> int:
    from repro.ingest import ManifestStore, verify_manifest

    store = ManifestStore(Path(args.dir))

    def resolve():
        if args.id:
            try:
                return store.load(args.id)
            except KeyError as exc:
                raise SystemExit(str(exc))
        latest = store.latest()
        if latest is None:
            raise SystemExit(f"no manifests published under {args.dir}")
        return latest

    if args.action == "list":
        history = store.history()
        if args.json:
            print(
                json.dumps(
                    [
                        {
                            "manifest_id": m.manifest_id,
                            "seq": m.seq,
                            "n_samples": m.n_samples,
                            "n_shards": len(m.shards),
                            "parent": m.parent,
                        }
                        for m in history
                    ],
                    indent=2,
                )
            )
        else:
            rows = [
                [str(m.seq), m.manifest_id[:16] + "…", str(m.n_samples),
                 str(len(m.shards))]
                for m in history
            ]
            print_table(["seq", "manifest", "samples", "shards"], rows)
        return 0

    if args.action == "show":
        print(json.dumps(resolve().to_json(), indent=2))
        return 0

    # verify
    manifest = resolve()
    try:
        report = verify_manifest(Path(args.dir), manifest, deep=args.deep)
    except (ValueError, container.CorruptSampleError) as exc:
        if args.json:
            print(
                json.dumps(
                    {
                        "manifest_id": manifest.manifest_id,
                        "ok": False,
                        "error": str(exc),
                    }
                )
            )
        else:
            print(f"FAIL {manifest.manifest_id[:16]}…: {exc}")
        return 1
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"OK {manifest.manifest_id[:16]}… — {report['n_samples']} "
            f"sample(s) across {report['n_shards']} shard(s)"
            + (" (deep-verified)" if args.deep else "")
        )
    return 0


def cmd_cluster(args) -> int:
    from repro.cluster.dispatcher import dispatcher_call
    from repro.serve import protocol

    if args.action == "status":
        try:
            status = dispatcher_call(
                args.host, args.port, protocol.OP_LEASE, {"action": "status"},
                timeout_s=args.timeout_s,
            )
        except OSError as exc:
            raise SystemExit(f"cannot reach {args.host}:{args.port}: {exc}")
        if args.json:
            print(json.dumps(status, indent=2))
            return 0
        rows = [
            [w["worker_id"], f"{w['host']}:{w['port']}", w["incarnation"],
             "draining" if w["draining"] else "serving",
             w["heartbeats"], f"{w['lease_remaining_s']:.2f}s"]
            for w in status["workers"]
        ]
        print_table(
            ["worker", "address", "incarnation", "state", "heartbeats",
             "lease left"],
            rows,
        )
        print(
            f"membership v{status['version']}, "
            f"routing v{status.get('routing_version')}, "
            f"lease {status['lease_s']}s, "
            f"replication {status.get('replication')} "
            f"over {status.get('n_buckets')} buckets"
        )
        return 0

    if args.action == "drain":
        if not args.worker_id:
            raise SystemExit("cluster drain requires --worker-id")
        try:
            reply = dispatcher_call(
                args.host, args.port, protocol.OP_LEASE,
                {"action": "drain", "worker_id": args.worker_id},
                timeout_s=args.timeout_s,
            )
        except OSError as exc:
            raise SystemExit(f"cannot reach {args.host}:{args.port}: {exc}")
        if args.json:
            print(json.dumps(reply, indent=2))
        else:
            print(
                f"{args.worker_id}: "
                + ("draining (left the routing table, membership "
                   f"v{reply['version']})" if reply["drained"]
                   else "not drained (unknown or already draining)")
            )
        return 0 if reply["drained"] else 1

    # start: dispatcher + N in-process workers over one record file
    import signal
    import threading

    from repro.cluster import ClusterWorker, Dispatcher
    from repro.pipeline.sources import ListSource, TfRecordSource
    from repro.serve.admission import AdmissionController, AdmissionPolicy
    from repro.storage.cache import SampleCache

    if args.input is None:
        raise SystemExit("cluster start requires --input")
    if args.gzip:
        source = ListSource(list(_iter_samples(args.input, True)))
    else:
        source = TfRecordSource(args.input)
    if len(source) == 0:
        raise SystemExit("no records in input")

    dispatcher = Dispatcher(
        host=args.host,
        port=args.port,
        lease_s=args.lease_s,
        replication=args.replication,
        world_size=args.world_size,
        seed=args.seed,
    ).start()

    def make_admission():
        if args.rate_per_client <= 0 and args.max_inflight <= 0:
            return None
        return AdmissionController(AdmissionPolicy(
            rate_per_client=args.rate_per_client or None,
            max_inflight=args.max_inflight or None,
        ))

    workers = [
        ClusterWorker(
            source,
            dispatcher=dispatcher.address,
            host=args.host,
            cache=(SampleCache(args.cache_mb * 1e6)
                   if args.cache_mb > 0 else None),
            admission=make_admission(),
        ).start()
        for _ in range(args.workers)
    ]
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, lambda *_: stop.set())
        except ValueError:  # not the main thread (tests)
            pass
    startup = {
        "dispatcher": {"host": dispatcher.address[0],
                       "port": dispatcher.address[1]},
        "workers": [
            {"worker_id": w.worker_id, "host": w.address[0],
             "port": w.address[1]}
            for w in workers
        ],
        "n_samples": len(source),
        "replication": args.replication,
        "lease_s": args.lease_s,
    }
    if args.json:
        print(json.dumps(startup), flush=True)
    else:
        print(
            f"dispatcher on {dispatcher.address[0]}:{dispatcher.address[1]} "
            f"— {len(workers)} worker(s), replication {args.replication}, "
            f"{len(source)} samples — Ctrl-C to drain",
            flush=True,
        )
        for w in startup["workers"]:
            print(f"  {w['worker_id']}: {w['host']}:{w['port']}", flush=True)
    stop.wait(timeout=args.duration_s)
    for w in workers:
        w.close(drain=True)
    dispatcher.close(drain=True)
    snap = dispatcher.stats.snapshot()
    summary = {
        "drained": True,
        "registrations": snap.get("dispatch.register", (0, 0.0))[0],
        "heartbeats": snap.get("dispatch.heartbeat", (0, 0.0))[0],
        "route_fetches": snap.get("dispatch.route", (0, 0.0))[0],
        "expired": snap.get("dispatch.expired", (0, 0.0))[0],
    }
    if args.json:
        print(json.dumps(summary))
    else:
        print(
            f"drained: {summary['registrations']} registration(s), "
            f"{summary['heartbeats']} heartbeat(s), "
            f"{summary['route_fetches']} route fetch(es), "
            f"{summary['expired']} expired lease(s)"
        )
    return 0


def cmd_tune(args) -> int:
    from repro.tune import (
        paper_config,
        resolve_machine,
        simulate_config,
        tune,
        workload_space,
    )

    try:
        machine = resolve_machine(args.machine)
        space = workload_space(args.workload)
    except ValueError as exc:
        raise SystemExit(str(exc))
    result = tune(
        machine,
        space,
        samples_per_gpu=args.samples_per_gpu,
        batch_size=args.batch_size,
        seed=args.seed,
        max_rounds=args.max_rounds,
        validate=not args.no_validate,
    )
    paper = paper_config(machine, space, batch_size=args.batch_size)
    paper_sim = simulate_config(
        machine, space, paper, args.samples_per_gpu
    ).node_samples_per_s

    if args.json:
        out = result.to_json()
        out["paper_config"] = vars(paper).copy()
        out["paper_simulated_samples_per_s"] = paper_sim
        out["trials"] = out["trials"][: args.top]
        print(json.dumps(out, indent=2))
        return 0

    best = result.best
    print(
        f"tune {result.machine}/{result.workload}: "
        f"{result.evaluations} configurations in {result.rounds} round(s)"
        f"{' (converged)' if result.converged else ''}"
    )
    print(f"  best:  {best.config.describe()}  "
          f"predicted {best.predicted:.1f} samples/s "
          f"(bottleneck: {best.prediction.bottleneck})")
    if best.simulated_samples_per_s:
        print(f"         simulated {best.simulated_samples_per_s:.1f} samples/s "
              f"(prediction error {best.prediction_error:.1%})")
    print(f"  paper: {paper.describe()}  "
          f"simulated {paper_sim:.1f} samples/s")
    rows = [
        [i, t.config.describe(), f"{t.predicted:.1f}",
         t.prediction.bottleneck, f"{t.prediction.hit_rate:.0%}"]
        for i, t in enumerate(result.trials[: args.top])
    ]
    print_table(["rank", "config", "pred samples/s", "bottleneck", "hit"], rows)
    return 0


def cmd_graph(args) -> int:
    from repro.conformance import check_graph_equivalence
    from repro.graph import compile_graph
    from repro.pipeline import ListSource

    blobs = list(_iter_samples(args.input, args.gzip))
    if not blobs:
        raise SystemExit("no records in input")
    plugin = _make_plugin(args.workload, args.representation)
    kwargs = {}
    if args.holdout:
        if not isinstance(plugin, DeepcamDeltaPlugin):
            raise SystemExit(
                "--holdout needs the deepcam 'plugin' representation"
            )
        kwargs["holdout"] = args.holdout
    graph = plugin.declare_preprocessing(ListSource(blobs), **kwargs)

    if args.action == "show":
        if args.json:
            print(json.dumps(graph.to_json(), indent=2))
            return 0
        print(graph.describe())
        print("edges:")
        for a, b in graph.edges():
            print(f"  {a} -> {b}")
        return 0

    naive = compile_graph(graph, optimize=False)
    optimized = compile_graph(graph, optimize=True)
    report = None
    if args.check:
        report = check_graph_equivalence(graph, epochs=args.epochs)

    if args.json:
        out = {
            "workload": args.workload,
            "representation": args.representation,
            "samples": len(blobs),
            "naive": naive.to_json(),
            "optimized": optimized.to_json(),
        }
        if report is not None:
            out["check"] = {
                "ok": report.ok,
                "impls": report.impls,
                "epochs": args.epochs,
                "mismatches": [str(m) for m in report.mismatches],
            }
        print(json.dumps(out, indent=2))
    else:
        print(naive.describe())
        print()
        print(optimized.describe())
        if report is not None:
            verdict = (
                "bit-identical" if report.ok
                else f"{len(report.mismatches)} MISMATCH(ES)"
            )
            print()
            print(
                f"check: {len(blobs)} sample(s) x {args.epochs} epoch(s) "
                f"across {'/'.join(report.impls)}: {verdict}"
            )
            for m in report.mismatches:
                print(f"  {m}", file=sys.stderr)
    return 0 if report is None or report.ok else 1


def cmd_vectors(args) -> int:
    from repro.conformance import generate_vectors, verify_vectors
    from repro.conformance.vectors import DEFAULT_SEED

    if args.action == "generate":
        try:
            manifest = generate_vectors(
                args.dir,
                seed=DEFAULT_SEED if args.seed is None else args.seed,
                force=args.force,
            )
        except FileExistsError as exc:
            raise SystemExit(str(exc))
        print(
            f"wrote {len(manifest['cases'])} golden vectors to {args.dir} "
            f"(seed {manifest['seed']})"
        )
        return 0
    report = verify_vectors(args.dir)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
        return 0 if report.ok else 1
    rows = [
        [r.name, r.codec, "ok" if r.ok else "FAIL",
         "; ".join(r.errors) or "-"]
        for r in report.results
    ]
    print_table(["case", "codec", "status", "detail"], rows)
    n_bad = len(report.failed)
    print(f"{len(report.results)} cases, {n_bad} failing")
    return 1 if n_bad or not report.results else 0


def cmd_fuzz(args) -> int:
    from repro.conformance import fuzz, replay_crashes
    from repro.conformance.fuzzer import FuzzReport

    if args.replay:
        report = replay_crashes(args.replay)
    else:
        if args.samples is None and args.budget_s is None:
            raise SystemExit("one of --samples / --budget-s is required")
        codecs = ("delta", "lut") if args.codec == "all" else (args.codec,)
        budget = (
            None if args.budget_s is None else args.budget_s / len(codecs)
        )
        report = FuzzReport(codec=args.codec, seed=args.seed)
        for codec in codecs:
            report.merge(fuzz(
                codec,
                samples=args.samples,
                budget_s=budget,
                seed=args.seed,
                crash_dir=args.crash_dir,
            ))
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
        return 0 if report.ok else 1
    what = "replayed" if args.replay else "fuzzed"
    print(
        f"{what} {report.cases} cases in {report.elapsed_s:.1f}s "
        f"({', '.join(f'{k}:{v}' for k, v in sorted(report.by_kind.items()))})"
    )
    for m in report.mismatches:
        print(f"MISMATCH {m}", file=sys.stderr)
    for c in report.crashes:
        print(f"CRASH {c['kind']}: {c['error']}", file=sys.stderr)
    if report.saved:
        print(f"saved {len(report.saved)} reproducer(s):")
        for p in report.saved:
            print(f"  {p}")
    print("conformance: " + ("OK" if report.ok else "FAILED"))
    return 0 if report.ok else 1


def _probe_tiers(args):
    """Build a tier hierarchy over a record file and run probe epochs.

    Shared by ``repro tiers`` and the ``repro stats --tiers`` probe: the
    record file becomes the backing store, and ``--epochs`` shuffled
    read sweeps run with a migration cycle between consecutive epochs —
    the same cadence training uses — so the reported hit rates reflect a
    promoted working set, not a cold hierarchy.  Returns the manager
    with the last epoch's access window still open (``plan`` needs it).
    """
    from repro.pipeline.sources import ListSource
    from repro.tiering import TieredSource, build_hierarchy
    from repro.tune import resolve_machine

    blobs = list(_iter_samples(args.input, args.gzip))
    if not blobs:
        raise SystemExit("no records in input")
    try:
        machine = resolve_machine(args.machine)
    except ValueError as exc:
        raise SystemExit(str(exc))
    manager = build_hierarchy(
        machine,
        ram_budget_bytes=args.ram_mb * 1e6,
        nvme_budget_bytes=args.nvme_mb * 1e6,
        nvme_dir=args.nvme_dir,
        policy=args.policy,
        verify=True,
    )
    source = TieredSource(ListSource(blobs), manager)
    rng = np.random.default_rng(args.seed)
    for epoch in range(args.epochs):
        for i in rng.permutation(len(source)):
            source.read(int(i))
        if epoch < args.epochs - 1:
            source.end_epoch(max_moves=args.max_moves)
    return manager


def _print_tier_status(status: dict) -> None:
    rows = [
        [lv["name"], lv["policy"],
         f"{lv['used_bytes'] / 1e6:.2f}/{lv['budget_bytes'] / 1e6:.2f}",
         lv["entries"], lv["hits"], f"{lv['hit_rate']:.0%}",
         f"{lv['modeled_read_s'] * 1e3:.2f}"]
        for lv in status["levels"]
    ]
    print_table(
        ["level", "policy", "used/budget MB", "entries", "hits",
         "hit rate", "modeled read ms"],
        rows,
    )
    print(
        f"overall hit rate {status['hit_rate']:.0%}, "
        f"{status['misses']} misses, "
        f"{status['backing_reads']} backing reads, "
        f"{status['promotions']} promotions, "
        f"{status['demotions']} demotions, "
        f"{status['evictions']} evictions, "
        f"{status['rejected_oversize']} oversize rejects, "
        f"{status['verify_failures']} verify failures, "
        f"{status['rebalances']} rebalances — "
        f"modeled read {status['modeled_read_s'] * 1e3:.1f} ms total"
    )


def cmd_tiers(args) -> int:
    manager = _probe_tiers(args)
    if args.action == "status":
        status = manager.status()
        if args.json:
            print(json.dumps(status, indent=2))
        else:
            _print_tier_status(status)
        return 0
    if args.action == "plan":
        plan = manager.plan_migrations(max_moves=args.max_moves)
        if args.json:
            print(json.dumps(plan.to_json(), indent=2))
            return 0
        rows = [[m.key, m.kind, m.src, m.dst or "-", m.nbytes]
                for m in plan.moves]
        print_table(["sample", "move", "from", "to", "bytes"], rows)
        counts = plan.counts()
        print(", ".join(f"{v} {k}" for k, v in counts.items()))
        return 0
    # migrate: apply one more cycle, then show where that left the tiers
    summary = manager.end_epoch(max_moves=args.max_moves)
    status = manager.status()
    if args.json:
        print(json.dumps({"migrated": summary, "status": status}, indent=2))
        return 0
    print("migrated: " + (
        ", ".join(f"{k}={v}" for k, v in sorted(summary.items()))
        or "nothing to move"
    ))
    _print_tier_status(status)
    return 0


def cmd_trace(args) -> int:
    from repro.observe import (
        TraceRecorder,
        build_trees,
        chrome_trace,
        folded_stacks,
        load_spans,
        render_top,
        render_tree,
        top_spans,
    )

    if args.action == "record":
        from repro.pipeline import DataLoader, ListSource

        if not args.input or not args.workload:
            raise SystemExit("trace record needs --input and --workload")
        if not args.output:
            raise SystemExit("trace record needs --output (the trace file)")
        plugin = _make_plugin(args.workload, args.representation)
        blobs = list(_iter_samples(args.input, args.gzip))
        if not blobs:
            raise SystemExit("no records in input")
        recorder = TraceRecorder(
            capacity=args.capacity,
            sample_rate=args.sample_rate,
            seed=args.seed,
            exemplars=args.exemplars,
            proc="loader",
        )
        loader = DataLoader(
            ListSource(blobs), plugin, batch_size=args.batch_size,
            shuffle=False, graph=True, trace=recorder,
        )
        n = 0
        for epoch in range(args.epochs):
            for batch, _ in loader.batches(epoch):
                n += batch.shape[0]
        doc = recorder.to_json()
        Path(args.output).write_text(json.dumps(doc, indent=2))
        summary = {
            "samples": n,
            "epochs": args.epochs,
            "spans": len(doc["spans"]),
            "exemplars": len(doc["exemplars"]),
            "sample_rate": args.sample_rate,
            "output": args.output,
        }
        if args.json:
            print(json.dumps(summary, indent=2))
        else:
            print(
                f"traced {n} sample(s) over {args.epochs} epoch(s): "
                f"{summary['spans']} span(s), {summary['exemplars']} "
                f"exemplar tree(s) -> {args.output}"
            )
        return 0

    if args.action == "export":
        if not args.trace:
            raise SystemExit("trace export needs --trace (a record file)")
        spans = load_spans(args.trace)
        if args.format == "chrome":
            text = json.dumps(chrome_trace(spans), indent=2)
        elif args.format == "folded":
            text = "\n".join(folded_stacks(spans))
        else:
            text = render_tree(build_trees(spans))
        if args.output:
            Path(args.output).write_text(text + "\n")
            print(
                f"wrote {args.format} export of {len(spans)} span(s) "
                f"to {args.output}"
            )
        else:
            print(text)
        return 0

    # top: the "where did the time go" table, from a recorded trace
    # file or scraped live from a running server's METRICS op
    if args.trace:
        rows = top_spans(load_spans(args.trace))
    elif args.port:
        from repro.serve import RemoteSource

        try:
            with RemoteSource(
                args.host, args.port, timeout_s=args.timeout_s
            ) as src:
                observe = src.metrics().get("observe")
        except OSError as exc:
            raise SystemExit(f"cannot reach {args.host}:{args.port}: {exc}")
        if not observe:
            raise SystemExit(
                f"server {args.host}:{args.port} has no trace recorder "
                f"attached (start it with tracing enabled)"
            )
        rows = [
            {
                "name": name,
                "n": st["n"],
                "total_s": st["total_s"],
                "mean_s": st["total_s"] / max(1, st["n"]),
                "max_s": st["max_s"],
            }
            for name, st in observe["spans"].items()
        ]
        rows.sort(key=lambda r: -r["total_s"])
    else:
        raise SystemExit(
            "trace top needs --trace FILE or --port of a live server"
        )
    if args.json:
        print(json.dumps(rows[:args.limit], indent=2))
    else:
        print(render_top(rows, limit=args.limit))
    return 0


def _add_tier_probe_args(p: argparse.ArgumentParser) -> None:
    """The knobs of the :func:`_probe_tiers` read sweep (``tiers``/``stats``)."""
    from repro.tiering import POLICIES

    p.add_argument("--machine", default="summit",
                   help="tier specs come from this simulated machine "
                        "(summit, cori-v100, cori-a100)")
    p.add_argument("--ram-mb", type=float, default=4.0,
                   help="RAM-level capacity budget; 0 omits the level")
    p.add_argument("--nvme-mb", type=float, default=16.0,
                   help="NVMe-level capacity budget; 0 omits the level")
    p.add_argument("--nvme-dir", default=None,
                   help="directory backing the NVMe level (default: "
                        "in-memory, modeled at NVMe bandwidth)")
    p.add_argument("--policy", choices=POLICIES, default="lru",
                   help="per-level eviction policy")
    p.add_argument("--epochs", type=int, default=2,
                   help="probe read-sweep epochs (migration runs between "
                        "consecutive epochs)")
    p.add_argument("--seed", type=int, default=0,
                   help="epoch shuffle seed")
    p.add_argument("--max-moves", type=int, default=None,
                   help="cap migration moves per cycle")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset")
    g.add_argument("--workload", choices=("cosmoflow", "deepcam"),
                   required=True)
    g.add_argument("--representation", choices=("base", "plugin"),
                   default="base")
    g.add_argument("--count", type=int, default=4)
    g.add_argument("--size", type=int, default=32,
                   help="grid (cosmoflow) or height (deepcam)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--gzip", action="store_true")
    g.add_argument("--output", required=True)
    g.set_defaults(func=cmd_generate)

    i = sub.add_parser("inspect", help="list a record file's samples")
    i.add_argument("--input", required=True)
    i.add_argument("--gzip", action="store_true")
    i.set_defaults(func=cmd_inspect)

    a = sub.add_parser("analyze", help="Fig-5 statistics of raw samples")
    a.add_argument("--input", required=True)
    a.add_argument("--gzip", action="store_true")
    a.set_defaults(func=cmd_analyze)

    b = sub.add_parser("bench", help="decode throughput of a record file")
    b.add_argument("--workload", choices=("cosmoflow", "deepcam"),
                   required=True)
    b.add_argument("--representation", choices=("base", "plugin"),
                   default="plugin")
    b.add_argument("--input", required=True)
    b.add_argument("--gzip", action="store_true")
    b.add_argument("--json", action="store_true",
                   help="machine-readable output")
    b.set_defaults(func=cmd_bench)

    st = sub.add_parser("stats", help="codec statistics of encoded samples")
    st.add_argument("--input", required=True)
    st.add_argument("--gzip", action="store_true")
    st.add_argument("--tiers", action="store_true",
                    help="also probe a tier hierarchy over the file and "
                         "report its hit rates and migration counters")
    st.add_argument("--pipeline", action="store_true",
                    help="also run one graph-compiled epoch over the file "
                         "and report per-stage pipeline.* time counters")
    st.add_argument("--workload", choices=("cosmoflow", "deepcam"),
                    help="workload for --pipeline")
    st.add_argument("--representation", choices=("base", "plugin"),
                    default="plugin", help="representation for --pipeline")
    _add_tier_probe_args(st)
    st.add_argument("--all", action="store_true",
                    help="emit one merged document over every subsystem "
                         "(loader, pipeline, tiers, remote, cluster, "
                         "ingest) with a stable key schema; sections not "
                         "probed are null")
    st.add_argument("--host", default="127.0.0.1",
                    help="with --all: server/dispatcher contact address")
    st.add_argument("--port", type=int, default=0,
                    help="with --all: include a running server's counters "
                         "and trace summary (METRICS scrape)")
    st.add_argument("--dispatcher-port", type=int, default=0,
                    help="with --all: include a running dispatcher's "
                         "membership/routing status")
    st.add_argument("--ingest-dir", default=None,
                    help="with --all: include this ingest directory's "
                         "committed/torn/manifest counters")
    st.add_argument("--timeout-s", type=float, default=5.0,
                    help="with --all: remote probe timeout")
    st.add_argument("--json", action="store_true",
                    help="machine-readable output")
    st.set_defaults(func=cmd_stats)

    v = sub.add_parser("verify", help="integrity-check a record file")
    v.add_argument("--input", required=True)
    v.add_argument("--gzip", action="store_true")
    v.add_argument("--verbose", action="store_true",
                   help="print each corruption detail to stderr")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser(
        "chaos", help="run epochs under fault injection with retries"
    )
    c.add_argument("--workload", choices=("cosmoflow", "deepcam"),
                   required=True)
    c.add_argument("--representation", choices=("base", "plugin"),
                   default="plugin")
    c.add_argument("--input", required=True)
    c.add_argument("--gzip", action="store_true")
    c.add_argument("--epochs", type=int, default=1)
    c.add_argument("--batch-size", type=int, default=2)
    c.add_argument("--workers", type=int, default=2)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--io-error-rate", type=float, default=0.0,
                   help="probability of a transient IOError per read")
    c.add_argument("--truncate-rate", type=float, default=0.0,
                   help="probability of a truncated blob per read")
    c.add_argument("--bitflip-rate", type=float, default=0.0,
                   help="probability of a flipped bit per read")
    c.add_argument("--latency-rate", type=float, default=0.0,
                   help="probability of a latency spike per read")
    c.add_argument("--latency-s", type=float, default=0.01,
                   help="duration of one injected latency spike")
    c.add_argument("--corrupt", default="",
                   help="comma-separated sample ids corrupted at rest")
    c.add_argument("--retries", type=int, default=3,
                   help="max read attempts (RetryingSource)")
    c.add_argument("--backoff-s", type=float, default=0.001,
                   help="base exponential-backoff delay")
    c.add_argument("--read-timeout-s", type=float, default=None,
                   help="per-read wall-clock budget incl. retries")
    c.add_argument("--policy", choices=("raise", "skip", "substitute"),
                   default="raise", help="bad-sample policy")
    c.set_defaults(func=cmd_chaos)

    sv = sub.add_parser(
        "serve", help="serve a record file to networked trainer clients"
    )
    sv.add_argument("--input", default=None,
                    help="record file to serve (or use --ingest-dir)")
    sv.add_argument("--ingest-dir", default=None,
                    help="serve a live repro.ingest directory instead of a "
                         "record file; EPOCH_MANIFEST pins each epoch to "
                         "the latest published snapshot manifest")
    sv.add_argument("--gzip", action="store_true",
                    help="input is gzip-compressed (materialized in memory)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=0,
                    help="0 picks an ephemeral port (printed at startup)")
    sv.add_argument("--cache-mb", type=float, default=64.0,
                    help="shared sample cache size; 0 disables caching")
    sv.add_argument("--verify", action="store_true",
                    help="checksum-verify every uncached read")
    sv.add_argument("--max-connections", type=int, default=32,
                    help="concurrent connection bound (back-pressure above)")
    sv.add_argument("--world-size", type=int, default=1,
                    help="ranks in the shard plan served by EPOCH")
    sv.add_argument("--seed", type=int, default=0,
                    help="shard-plan shuffle seed")
    sv.add_argument("--service-delay-ms", type=float, default=0.0,
                    help="simulated per-read link/storage latency "
                         "(benchmarking aid; see docs/serving.md)")
    sv.add_argument("--trace", action="store_true",
                    help="attach a span recorder; scrape it live with "
                         "`repro trace top --port` (METRICS op)")
    sv.add_argument("--trace-sample-rate", type=float, default=1.0,
                    help="head-sampling probability for --trace")
    sv.add_argument("--duration-s", type=float, default=None,
                    help="serve for N seconds then drain (default: until "
                         "SIGINT/SIGTERM)")
    sv.add_argument("--json", action="store_true",
                    help="machine-readable startup/summary lines")
    sv.set_defaults(func=cmd_serve)

    fe = sub.add_parser(
        "fetch", help="fetch samples or reports from a running server"
    )
    fe.add_argument("--host", default="127.0.0.1")
    fe.add_argument("--port", type=int, required=True)
    fe.add_argument("--timeout-s", type=float, default=10.0)
    what = fe.add_mutually_exclusive_group()
    what.add_argument("--health", action="store_true",
                      help="print the server health report and exit")
    what.add_argument("--info", action="store_true",
                      help="print the dataset/server info and exit")
    what.add_argument("--stats-only", action="store_true",
                      help="print the server counter snapshot and exit")
    what.add_argument("--indices", default="",
                      help="comma-separated sample indices to fetch")
    what.add_argument("--epoch", type=int, default=None,
                      help="fetch this rank's EPOCH-coordinated shard")
    fe.add_argument("--rank", type=int, default=0,
                    help="rank for --epoch shard requests")
    fe.add_argument("--manifest", action="store_true",
                    help="with --epoch: use EPOCH_MANIFEST, pinning the "
                         "shard to the server's snapshot manifest")
    fe.add_argument("--verify", action="store_true",
                    help="integrity-check every fetched container")
    fe.add_argument("--output", default=None,
                    help="write fetched blobs to a record file")
    fe.add_argument("--json", action="store_true",
                    help="machine-readable output")
    fe.set_defaults(func=cmd_fetch)

    ing = sub.add_parser(
        "ingest", help="append-only online ingestion (repro.ingest)"
    )
    ing.add_argument("action", choices=("append", "status", "recover"))
    ing.add_argument("--dir", required=True,
                     help="ingest directory (shards + manifests)")
    ing.add_argument("--count", type=int, default=16,
                     help="samples to append")
    ing.add_argument("--publish-every", type=int, default=0,
                     help="publish a snapshot manifest every N appends "
                          "(0: only once at the end)")
    ing.add_argument("--no-publish", action="store_true",
                     help="append without publishing any manifest")
    ing.add_argument("--shard-max-mb", type=float, default=64.0,
                     help="roll to a new shard past this size")
    ing.add_argument("--height", type=int, default=48)
    ing.add_argument("--width", type=int, default=72)
    ing.add_argument("--channels", type=int, default=16)
    ing.add_argument("--seed", type=int, default=0,
                     help="content seed; sample i is generated from "
                          "(seed, i), so re-runs continue the sequence")
    ing.add_argument("--torn-tail-bytes", type=int, default=0,
                     help="after appending, leave N garbage bytes on the "
                          "open shard (crash simulation for tests/CI)")
    ing.add_argument("--json", action="store_true",
                     help="machine-readable output")
    ing.set_defaults(func=cmd_ingest)

    mf = sub.add_parser(
        "manifest", help="inspect an ingest directory's snapshot manifests"
    )
    mf.add_argument("action", choices=("list", "show", "verify"))
    mf.add_argument("--dir", required=True,
                    help="ingest directory (shards + manifests)")
    mf.add_argument("--id", default=None,
                    help="manifest id (default: latest published)")
    mf.add_argument("--deep", action="store_true",
                    help="verify: also CRC-check every sample payload")
    mf.add_argument("--json", action="store_true",
                    help="machine-readable output")
    mf.set_defaults(func=cmd_manifest)

    cl = sub.add_parser(
        "cluster", help="fault-tolerant serving fleet (dispatcher + workers)"
    )
    cl.add_argument("action", choices=("start", "status", "drain"))
    cl.add_argument("--host", default="127.0.0.1",
                    help="dispatcher bind/contact address")
    cl.add_argument("--port", type=int, default=0,
                    help="dispatcher port (start: 0 picks ephemeral; "
                         "status/drain: the running dispatcher's port)")
    cl.add_argument("--input", default=None,
                    help="record file every worker serves (start)")
    cl.add_argument("--gzip", action="store_true",
                    help="input is gzip-compressed (materialized in memory)")
    cl.add_argument("--workers", type=int, default=3,
                    help="data-plane workers to launch (start)")
    cl.add_argument("--replication", type=int, default=2,
                    help="replicas per sample range (start)")
    cl.add_argument("--lease-s", type=float, default=2.0,
                    help="worker heartbeat lease (start)")
    cl.add_argument("--cache-mb", type=float, default=64.0,
                    help="per-worker sample cache; 0 disables (start)")
    cl.add_argument("--rate-per-client", type=float, default=0.0,
                    help="admission token-bucket rate per client; "
                         "0 disables (start)")
    cl.add_argument("--max-inflight", type=int, default=0,
                    help="per-worker global in-flight cap; 0 disables (start)")
    cl.add_argument("--world-size", type=int, default=1,
                    help="ranks in the cluster-wide shard plan (start)")
    cl.add_argument("--seed", type=int, default=0,
                    help="shard-plan shuffle seed (start)")
    cl.add_argument("--duration-s", type=float, default=None,
                    help="run for N seconds then drain (default: until "
                         "SIGINT/SIGTERM; start only)")
    cl.add_argument("--worker-id", default=None,
                    help="worker to remove from routing (drain)")
    cl.add_argument("--timeout-s", type=float, default=5.0,
                    help="control-call timeout (status/drain)")
    cl.add_argument("--json", action="store_true",
                    help="machine-readable output")
    cl.set_defaults(func=cmd_cluster)

    t = sub.add_parser(
        "tune", help="search for the fastest pipeline configuration"
    )
    t.add_argument("--machine", required=True,
                   help="simulated machine (summit, cori-v100, cori-a100)")
    t.add_argument("--workload", choices=("cosmoflow", "deepcam"),
                   required=True)
    t.add_argument("--samples-per-gpu", type=int, default=2048,
                   help="nominal dataset size per GPU (drives cache fit)")
    t.add_argument("--batch-size", type=int, default=4)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--max-rounds", type=int, default=8,
                   help="coordinate-descent round budget")
    t.add_argument("--no-validate", action="store_true",
                   help="skip the discrete-event what-if of the winner")
    t.add_argument("--top", type=int, default=10,
                   help="ranked trials to show")
    t.add_argument("--json", action="store_true",
                   help="machine-readable output")
    t.set_defaults(func=cmd_tune)

    vec = sub.add_parser(
        "vectors", help="golden-vector conformance corpus"
    )
    vec.add_argument("action", choices=("generate", "verify"))
    vec.add_argument("--dir", default="tests/vectors",
                     help="corpus directory (default: tests/vectors)")
    vec.add_argument("--seed", type=int, default=None,
                     help="generation seed (generate only)")
    vec.add_argument("--force", action="store_true",
                     help="overwrite an existing corpus (deliberate "
                          "format changes only)")
    vec.add_argument("--json", action="store_true",
                     help="machine-readable output (verify only)")
    vec.set_defaults(func=cmd_vectors)

    f = sub.add_parser(
        "fuzz", help="differential fuzzing across codec implementations"
    )
    f.add_argument("--codec", choices=("delta", "lut", "all"),
                   default="all")
    f.add_argument("--samples", type=int, default=None,
                   help="cases per codec")
    f.add_argument("--budget-s", type=float, default=None,
                   help="total wall-clock budget, split across codecs")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--crash-dir", default=None,
                   help="save failing inputs here as .npz reproducers")
    f.add_argument("--replay", default=None, metavar="DIR",
                   help="replay a crash-corpus directory instead of fuzzing")
    f.add_argument("--json", action="store_true",
                   help="machine-readable output")
    f.set_defaults(func=cmd_fuzz)

    gr = sub.add_parser(
        "graph",
        help="show or optimize a workload's declared preprocessing graph",
    )
    gr.add_argument("action", choices=("show", "optimize"))
    gr.add_argument("--workload", choices=("cosmoflow", "deepcam"),
                    required=True)
    gr.add_argument("--representation", choices=("base", "plugin"),
                    default="plugin")
    gr.add_argument("--input", required=True)
    gr.add_argument("--gzip", action="store_true")
    gr.add_argument("--holdout", type=float, default=0.0,
                    help="declare a training-split filter (deepcam plugin "
                         "only) the optimizer hoists to a prefilter")
    gr.add_argument("--check", action="store_true",
                    help="with optimize: differentially execute naive vs "
                         "optimized over the record file; non-zero exit on "
                         "any bit mismatch")
    gr.add_argument("--epochs", type=int, default=2,
                    help="epochs the --check executes")
    gr.add_argument("--json", action="store_true",
                    help="machine-readable output")
    gr.set_defaults(func=cmd_graph)

    ti = sub.add_parser(
        "tiers", help="probe a record file through a tier hierarchy"
    )
    ti.add_argument("action", choices=("status", "plan", "migrate"))
    ti.add_argument("--input", required=True)
    ti.add_argument("--gzip", action="store_true")
    _add_tier_probe_args(ti)
    ti.add_argument("--json", action="store_true",
                    help="machine-readable output")
    ti.set_defaults(func=cmd_tiers)

    tr = sub.add_parser(
        "trace",
        help="record, export, and summarize per-sample span traces",
    )
    tr.add_argument("action", choices=("record", "export", "top"))
    tr.add_argument("--workload", choices=("cosmoflow", "deepcam"),
                    help="record: workload plugin")
    tr.add_argument("--representation", choices=("base", "plugin"),
                    default="plugin")
    tr.add_argument("--input", default=None,
                    help="record: record file to run traced epochs over")
    tr.add_argument("--gzip", action="store_true")
    tr.add_argument("--epochs", type=int, default=1)
    tr.add_argument("--batch-size", type=int, default=2)
    tr.add_argument("--sample-rate", type=float, default=1.0,
                    help="head-sampling probability; slowest-K exemplar "
                         "trees are kept at any rate")
    tr.add_argument("--capacity", type=int, default=4096,
                    help="span ring-buffer capacity")
    tr.add_argument("--exemplars", type=int, default=8,
                    help="slowest-K full trace trees to retain")
    tr.add_argument("--seed", type=int, default=0,
                    help="sampling/id seed (reproduces which samples "
                         "were traced)")
    tr.add_argument("--output", default=None,
                    help="record: trace JSON file to write (required); "
                         "export: write here instead of stdout")
    tr.add_argument("--trace", default=None,
                    help="export/top: a trace file written by record")
    tr.add_argument("--format", choices=("chrome", "folded", "tree"),
                    default="chrome",
                    help="export format: chrome://tracing JSON, "
                         "flamegraph.pl folded stacks, or a text tree")
    tr.add_argument("--host", default="127.0.0.1",
                    help="top: live server to scrape (METRICS op)")
    tr.add_argument("--port", type=int, default=0,
                    help="top: live server port")
    tr.add_argument("--timeout-s", type=float, default=5.0)
    tr.add_argument("--limit", type=int, default=20,
                    help="top: rows to print")
    tr.add_argument("--json", action="store_true",
                    help="machine-readable output")
    tr.set_defaults(func=cmd_trace)
    return p


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the selected subcommand."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
