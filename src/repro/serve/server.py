"""Threaded TCP frame servers: the generic lifecycle and the sample server.

:class:`FrameServer` is the reusable machinery — bind/accept/drain, one
bounded handler thread per connection, per-op accounting — speaking the
:mod:`repro.serve.protocol` frame format.  Two services are built on it:

* :class:`DataServer` (here) — the worker data plane: serves any
  :class:`~repro.pipeline.sources.SampleSource` to trainer clients, with
  verify-before-cache, shard-aware epoch coordination, and optional
  admission control (:mod:`repro.serve.admission`);
* :class:`~repro.cluster.dispatcher.Dispatcher` — the cluster control
  plane: worker registration, heartbeat leases, and routing tables.

Design points shared by both:

* **One thread per connection, bounded.**  The accept loop takes a slot
  from a semaphore *before* accepting, so at ``max_connections`` the
  server simply stops accepting and surplus clients queue in the kernel
  listen backlog — back-pressure instead of unbounded thread growth.
* **Graceful drain.**  ``close()`` stops accepting, lets every in-flight
  request finish, then closes the connections; ``close(drain=False)``
  aborts immediately.
* **Per-op accounting** in a :class:`~repro.tune.stats.StatsRegistry` —
  the same registry the autotuner reads, so a serving deployment is
  observable with the same tooling.

``DataServer``-specific points:

* **Shared cache with verify-before-cache.**  Pass a
  :class:`~repro.storage.cache.SampleCache` and every miss is fetched
  from the inner source, checksum-verified, and only then cached — one
  corrupt read can never poison other clients' epochs.  The cache is
  shared across all connection threads (it is thread-safe).
* **Shard-aware epoch coordination.**  ``EPOCH(rank, epoch)`` hands the
  caller its deterministic per-epoch shard from the server's
  :class:`~repro.serve.coordination.EpochCoordinator`, so disjoint
  clients jointly cover the dataset exactly once per epoch.
* **Load shedding.**  With an :class:`~repro.serve.admission.AdmissionController`
  attached, an over-budget READ is answered with a retryable ``ST_BUSY``
  frame instead of queueing unboundedly — clients back off or re-route
  to a replica (see docs/serving.md, "Cluster mode").
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import nullcontext
from time import perf_counter

from repro.core.encoding.container import verify_sample
from repro.observe import trace as observe
from repro.pipeline.sources import CachedSource, SampleSource, read_batch_slots
from repro.serve import protocol
from repro.serve.admission import AdmissionController, BusyError
from repro.serve.coordination import EpochCoordinator, ShardPlan
from repro.storage.cache import SampleCache
from repro.tune.stats import StatsRegistry

__all__ = ["FrameServer", "DataServer"]

#: how often an idle connection re-checks the drain flag
_POLL_S = 0.25

_OP_NAMES = {
    protocol.OP_READ: "read",
    protocol.OP_READ_BATCH: "read_batch",
    protocol.OP_INFO: "info",
    protocol.OP_STATS: "stats",
    protocol.OP_HEALTH: "health",
    protocol.OP_EPOCH: "epoch",
    protocol.OP_MANIFEST: "manifest",
    protocol.OP_EPOCH_MANIFEST: "epoch_manifest",
    protocol.OP_REGISTER: "register",
    protocol.OP_HEARTBEAT: "heartbeat",
    protocol.OP_ROUTE: "route",
    protocol.OP_LEASE: "lease",
    protocol.OP_METRICS: "metrics",
}

#: shared inert context: tracing disabled, or no read lock needed
_NULL_CTX = nullcontext()


def _read_scalar(source: SampleSource, indices) -> list:
    """The ``READ`` op's reader: a group of one takes the scalar
    ``source.read`` (never ``read_batch_slots([i])``); a failure raises."""
    return [source.read(indices[0])]


class FrameServer:
    """Bounded threaded TCP server speaking the frame protocol.

    Subclasses implement :meth:`_dispatch`; everything else — lifecycle,
    back-pressure, drain, error frames, accounting — is shared.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    max_connections:
        Concurrent connection bound; surplus clients wait in the listen
        backlog (back-pressure), they are not refused.
    stats:
        Optional shared :class:`StatsRegistry`; a private one is created
        otherwise and exposed as :attr:`stats`.
    """

    #: stat-name prefix for the per-op counters ("serve.read", …)
    stats_prefix = "serve"
    #: thread-name prefix for accept/handler threads
    thread_name = "repro-serve"

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 32,
        backlog: int = 128,
        stats: StatsRegistry | None = None,
        frame_timeout_s: float = 30.0,
    ) -> None:
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.backlog = backlog
        self.frame_timeout_s = frame_timeout_s
        self.stats = stats if stats is not None else StatsRegistry()
        self._stats_lock = threading.Lock()  # counters shared across handlers
        self._slots = threading.Semaphore(max_connections)
        self._active = 0
        self._served_connections = 0
        self._closing = False
        self._draining = False
        self._listen: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: set[threading.Thread] = set()
        self._handlers_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FrameServer":
        """Bind, listen, and start accepting in a background thread."""
        if self._listen is not None:
            raise RuntimeError("server already started")
        self._listen = socket.create_server(
            (self.host, self.port), backlog=self.backlog, reuse_port=False
        )
        # poll: closing a listener does not wake a thread blocked in
        # accept(), so the accept loop must time out to notice _closing
        self._listen.settimeout(_POLL_S)
        self.port = self._listen.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"{self.thread_name}-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        return (self.host, self.port)

    @property
    def active_connections(self) -> int:
        return self._active

    @property
    def draining(self) -> bool:
        return self._draining

    def close(self, drain: bool = True, timeout_s: float = 10.0) -> None:
        """Stop the server.

        With ``drain=True`` (default) the listener closes first, in-flight
        requests run to completion, and only then are connections torn
        down.  ``drain=False`` aborts connections immediately.  Idempotent.
        """
        self._closing = True
        self._draining = True
        listen, self._listen = self._listen, None
        if listen is not None:
            try:
                listen.close()
            except OSError:
                pass
        self._slots.release()  # wake an accept loop blocked on a full house
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout_s)
            self._accept_thread = None
        with self._handlers_lock:
            handlers = list(self._handlers)
        if not drain:
            # abort: yank the sockets out from under the handlers
            for t in handlers:
                conn = getattr(t, "serve_conn", None)
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
        for t in handlers:
            t.join(timeout=timeout_s)

    def __enter__(self) -> "FrameServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accounting --------------------------------------------------------

    def _record(self, name: str, value: float = 0.0, n: int = 1) -> None:
        with self._stats_lock:
            self.stats.add(name, value, n)

    # -- accept / connection loops ----------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            self._slots.acquire()  # back-pressure: block at capacity
            if self._closing:
                self._slots.release()
                return
            listen = self._listen
            if listen is None:
                self._slots.release()
                return
            try:
                conn, peer = listen.accept()
            except socket.timeout:
                self._slots.release()
                continue  # idle poll: re-check the closing flag
            except OSError:  # listener closed under us
                self._slots.release()
                return
            conn.settimeout(_POLL_S)
            t = threading.Thread(
                target=self._serve_connection,
                args=(conn, peer),
                name=f"{self.thread_name}-conn",
                daemon=True,
            )
            t.serve_conn = conn  # type: ignore[attr-defined]  # for abort
            with self._handlers_lock:
                self._handlers.add(t)
                self._active += 1
                self._served_connections += 1
            t.start()

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        self._record(f"{self.stats_prefix}.connections")
        try:
            with conn:
                while not self._draining:
                    try:
                        frame = protocol.recv_frame(
                            conn, frame_timeout_s=self.frame_timeout_s
                        )
                    except socket.timeout:
                        continue  # idle poll: re-check the drain flag
                    except (protocol.ProtocolError, OSError):
                        self._record(f"{self.stats_prefix}.errors")
                        return  # stream broken: drop the connection
                    except protocol.FrameCorruptError as exc:
                        # request damaged in flight but stream in sync:
                        # tell the client so it can retry the op
                        self._record(f"{self.stats_prefix}.errors")
                        response = self._error_frame(exc)
                    else:
                        if frame is None:
                            return  # clean EOF between requests
                        kind, body = frame
                        try:
                            response = self._timed_dispatch(kind, body, peer)
                        except BusyError as exc:
                            self._record(f"{self.stats_prefix}.busy")
                            response = self._busy_frame(exc)
                        except Exception as exc:  # never kill the handler
                            self._record(f"{self.stats_prefix}.errors")
                            response = self._error_frame(exc)
                    try:
                        if isinstance(response, tuple):
                            # scatter-gather frame: (kind, buffer list)
                            protocol.send_frame(conn, response[0], response[1])
                        else:
                            conn.sendall(response)
                    except OSError:
                        self._record(f"{self.stats_prefix}.errors")
                        return
        finally:
            self._slots.release()
            with self._handlers_lock:
                self._active -= 1
                self._handlers.discard(threading.current_thread())

    def _timed_dispatch(self, kind: int, body: bytes, peer):
        name = _OP_NAMES.get(kind)
        if name is None:
            raise ValueError(f"unsupported op {kind:#x}")
        t0 = perf_counter()
        try:
            return self._dispatch(kind, body, peer)
        finally:
            self._record(f"{self.stats_prefix}.{name}", perf_counter() - t0)

    # -- request dispatch (subclass responsibility) ------------------------

    def _dispatch(self, kind: int, body: bytes, peer):
        """Serve one request frame; return the response.

        Either a complete response frame (``bytes``) or a scatter-gather
        pair ``(status_kind, buffer_list)`` sent via
        :func:`~repro.serve.protocol.send_frame` without concatenation.
        ``peer`` is the connection's remote ``(host, port)`` — the
        admission-control client key.  Raising :class:`BusyError` sheds
        the request with an ``ST_BUSY`` frame; any other exception becomes
        an ``ST_ERROR`` frame.
        """
        raise NotImplementedError

    # -- error / shed responses --------------------------------------------

    @staticmethod
    def _error_payload(exc: Exception) -> bytes:
        """The JSON error object of an ``ST_ERROR`` frame or a
        ``SLOT_ERROR`` slot: what the client re-raises from."""
        payload = {"error": type(exc).__name__, "message": str(exc)}
        section = getattr(exc, "section", None)
        if section is not None:
            payload["section"] = section
        # propagate the trace back (the exception's own tag, else the
        # trace being served); old clients ignore the key
        trace_id = getattr(exc, "trace_id", 0) or observe.current_trace_id()
        if trace_id:
            payload["trace_id"] = format(trace_id, "x")
        return protocol.pack_json(payload)

    def _error_frame(self, exc: Exception) -> bytes:
        return protocol.pack_frame(protocol.ST_ERROR, self._error_payload(exc))

    def _busy_frame(self, exc: BusyError) -> bytes:
        return protocol.pack_frame(
            protocol.ST_BUSY,
            protocol.pack_json(
                {"retry_after_s": exc.retry_after_s, "reason": exc.reason}
            ),
        )


class DataServer(FrameServer):
    """Serve a ``SampleSource`` to many trainer clients over TCP.

    Parameters
    ----------
    source:
        Where container blobs come from (any ``SampleSource``; compose
        with :mod:`repro.robust` decorators for a fault-tolerant backend).
    cache:
        Optional shared :class:`SampleCache` fronting the source, with
        verify-before-cache applied to every miss.
    verify:
        ``None`` (default) verifies exactly when a cache is present —
        the verify-before-cache contract: a miss is checksum-verified
        before it is stored, so one corrupt read can never poison other
        clients' epochs.  Pass ``True`` to also verify uncached reads, or
        ``False`` to disable verification entirely (non-container blobs).
    world_size / seed:
        Shard plan geometry for ``EPOCH`` coordination.
    coordinator:
        Bring your own :class:`EpochCoordinator` instead of the default
        fixed-plan one built from ``len(source)`` — how an online-ingest
        deployment attaches a
        :class:`~repro.ingest.coordination.ManifestEpochCoordinator`
        (per-epoch plans pinned to published manifests).  ``world_size``
        / ``seed`` are ignored when this is passed.
    manifest_store:
        Optional :class:`~repro.ingest.manifest.ManifestStore` answering
        ``MANIFEST`` frames (snapshot discovery for clients).  Pinned
        per-epoch coordination additionally needs the manifest-aware
        ``coordinator`` above — the store alone only serves lookups.
    admission:
        Optional :class:`AdmissionController`; over-budget READs are
        answered with a retryable ``ST_BUSY`` frame (load shedding)
        instead of queueing without bound.  Control-plane ops are never
        shed.
    service_delay_s:
        Deterministic extra delay applied to every ``READ`` — the
        serving-side counterpart of the discrete-event simulator's link
        and storage latencies, for studying client scaling on hosts whose
        loopback has none (see ``benchmarks/bench_serve_throughput.py``).
        Concurrent connections overlap these waits; a serial server would
        not.  Default 0 (off).

    Other parameters are inherited from :class:`FrameServer`.
    """

    def __init__(
        self,
        source: SampleSource,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache: SampleCache | None = None,
        verify: bool | None = None,
        max_connections: int = 32,
        backlog: int = 128,
        world_size: int = 1,
        seed: int = 0,
        coordinator: EpochCoordinator | None = None,
        manifest_store=None,
        stats: StatsRegistry | None = None,
        admission: AdmissionController | None = None,
        service_delay_s: float = 0.0,
        frame_timeout_s: float = 30.0,
        trace=None,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            max_connections=max_connections,
            backlog=backlog,
            stats=stats,
            frame_timeout_s=frame_timeout_s,
        )
        self._inner = source
        if verify is None:
            verify = cache is not None  # verify-before-cache by default
        self._verified = verify
        if cache is not None:
            source = CachedSource(source, cache, verify=verify)
            verify = False  # the fill path handles it
        self.source = source
        self.cache = cache
        self.verify = verify
        self.admission = admission
        self.service_delay_s = service_delay_s
        #: optional :class:`repro.observe.TraceRecorder` — when attached,
        #: every READ/READ_BATCH is recorded as a ``server.handle`` span
        #: tree, continuing the client's trace when the request carried a
        #: trace-context header (scraped live via the METRICS op)
        self.trace = trace
        self._read_lock = threading.Lock()  # serializes uncached source reads
        self.manifest_store = manifest_store
        if coordinator is not None:
            self.coordinator = coordinator
        else:
            self.coordinator = EpochCoordinator(
                ShardPlan(len(source), world_size=world_size, seed=seed)
            )

    # -- request dispatch --------------------------------------------------

    def _dispatch(self, kind: int, body: bytes, peer):
        if kind == protocol.OP_READ:
            return self._op_read(body, peer)
        if kind == protocol.OP_READ_BATCH:
            return self._op_read_batch(body, peer)
        if kind == protocol.OP_INFO:
            return protocol.pack_frame(
                protocol.ST_OK, protocol.pack_json(self.info())
            )
        if kind == protocol.OP_STATS:
            return protocol.pack_frame(
                protocol.ST_OK, protocol.pack_json(self.stats_report())
            )
        if kind == protocol.OP_HEALTH:
            return protocol.pack_frame(
                protocol.ST_OK, protocol.pack_json(self.health())
            )
        if kind == protocol.OP_EPOCH:
            return self._op_epoch(body)
        if kind == protocol.OP_MANIFEST:
            return self._op_manifest(body)
        if kind == protocol.OP_EPOCH_MANIFEST:
            return self._op_epoch_manifest(body)
        if kind == protocol.OP_METRICS:
            return self._op_metrics(body)
        raise ValueError(f"unsupported op {kind:#x}")

    def _handle_trace(self, op: str, tctx, **meta):
        """Server-side root trace for one request, or a shared no-op.

        With a trace-context header (``tctx``) the server span continues
        the client's trace — same trace id, parented under the client's
        ``wire.rpc`` span, honoring the client's sampling decision — so
        the two halves stitch into one tree at export.
        """
        if self.trace is None:
            return _NULL_CTX
        if tctx is not None:
            return self.trace.trace(
                "server.handle",
                trace_id=tctx.trace_id,
                parent_id=tctx.parent_id,
                sampled=tctx.sampled,
                op=op,
                **meta,
            )
        return self.trace.trace("server.handle", op=op, **meta)

    def _fetch(self, peer, indices, read=read_batch_slots) -> list:
        """The one guarded path to the source: blob-or-exception slots.

        Admission is charged once per request (a batch is one unit of
        server work to shed) and the service delay is paid once (that is
        the amortization the batch plane exists for); the read runs under
        the read lock unless a cache fronts the source, and every blob is
        then verified when the server verifies uncached reads.
        """
        if self.admission is not None:
            self.admission.admit(peer)  # raises BusyError on shed
        try:
            if self.service_delay_s > 0:
                time.sleep(self.service_delay_s)  # outside every lock
            # a CachedSource is internally locked; bare sources need not
            # be thread-safe
            with _NULL_CTX if self.cache is not None else self._read_lock:
                slots = read(self.source, indices)
            if self.verify:
                for pos, (index, blob) in enumerate(zip(indices, slots)):
                    if not isinstance(blob, Exception):
                        try:
                            verify_sample(blob, sample_id=int(index))
                        except Exception as exc:  # noqa: BLE001 — slot-isolated
                            slots[pos] = exc
            return slots
        finally:
            if self.admission is not None:
                self.admission.release()

    def _op_read(self, body: bytes, peer):
        index, tctx = protocol.unpack_read_traced(body)
        with self._handle_trace("read", tctx, index=index):
            (blob,) = self._fetch(peer, (index,), _read_scalar)
            if isinstance(blob, Exception):
                raise blob
        self._record("serve.read.bytes", float(len(blob)))
        # scatter-gather: the blob buffer goes to sendmsg by reference
        return (protocol.ST_OK, [blob])

    def _op_read_batch(self, body: bytes, peer):
        """Many blobs per round-trip, with per-slot error isolation.

        Each sample that fails to read or verify becomes a ``SLOT_ERROR``
        carrying the same JSON payload an ``ST_ERROR`` frame would — the
        rest of the batch is still delivered.
        """
        indices, tctx = protocol.unpack_indices_traced(body)
        with self._handle_trace("read_batch", tctx, n=len(indices)):
            slots = []
            n_bytes = 0
            for blob in self._fetch(peer, indices):
                if isinstance(blob, Exception):
                    slots.append(
                        (protocol.SLOT_ERROR, self._error_payload(blob))
                    )
                    self._record("serve.read_batch.slot_errors")
                else:
                    slots.append((protocol.SLOT_OK, blob))
                    n_bytes += len(blob)
        self._record("serve.read.bytes", float(n_bytes))
        self._record("serve.read_batch.samples", n=len(slots))
        return (protocol.ST_OK, protocol.batch_reply_parts(slots))

    def _op_epoch(self, body: bytes) -> bytes:
        rank, epoch = protocol.unpack_epoch(body)
        shard = self.coordinator.begin_epoch(rank, epoch)
        return protocol.pack_frame(protocol.ST_OK, protocol.pack_indices(shard))

    def _op_manifest(self, body: bytes) -> bytes:
        """Snapshot lookup: the latest published manifest, or one by id."""
        if self.manifest_store is None:
            raise ValueError("this server does not publish snapshot manifests")
        req = protocol.unpack_json(body) if body else {}
        if "id" in req:
            manifest = self.manifest_store.load(str(req["id"]))
        else:
            manifest = self.manifest_store.latest()
            if manifest is None:
                return protocol.pack_frame(
                    protocol.ST_OK, protocol.pack_json({"manifest": None})
                )
        return protocol.pack_frame(
            protocol.ST_OK, protocol.pack_json({"manifest": manifest.to_json()})
        )

    def _op_epoch_manifest(self, body: bytes) -> bytes:
        """``EPOCH`` extended with the pinned manifest id + sample count."""
        coordinator = self.coordinator
        if not hasattr(coordinator, "manifest_for"):
            raise ValueError(
                "this server's epochs are not manifest-coordinated; "
                "use the EPOCH op"
            )
        rank, epoch = protocol.unpack_epoch(body)
        shard = coordinator.begin_epoch(rank, epoch)
        manifest = coordinator.manifest_for(epoch)
        return protocol.pack_frame(
            protocol.ST_OK,
            protocol.pack_manifest_shard(
                manifest.manifest_id, manifest.n_samples, shard
            ),
        )

    # -- reports -----------------------------------------------------------

    def _op_metrics(self, body: bytes) -> bytes:
        """Live observability scrape: counters + span stats (+ one trace).

        Request JSON: ``{}`` for the summary, or ``{"trace_id": <hex>}``
        to also fetch every known span of one trace — the fetch half of
        cross-process stitching (``repro trace top`` / ``observe.stitch``).
        """
        req = protocol.unpack_json(body) if body else {}
        out = self.stats_report()
        if self.trace is not None:
            out["observe"] = self.trace.summary()
            tid = req.get("trace_id")
            if tid:
                out["trace_spans"] = [
                    observe.span_to_json(s)
                    for s in self.trace.spans_for(int(str(tid), 16))
                ]
        else:
            out["observe"] = None
        return protocol.pack_frame(protocol.ST_OK, protocol.pack_json(out))

    def info(self) -> dict:
        out = {
            "server": "repro.serve",
            "protocol": 1,
            "read_batch": True,  # READ_BATCH op supported
            # this server parses (or harmlessly skips) trace-context
            # headers on READ/READ_BATCH — the client's cue to attach them
            "trace_headers": True,
            "trace": self.trace is not None,  # spans actually recorded
            "n_samples": len(self.source),
            "world_size": self.coordinator.world_size,
            "seed": self.coordinator.seed,
            "cached": self.cache is not None,
            "verify": self._verified,
            "manifests": self.manifest_store is not None,
        }
        if self.manifest_store is not None:
            latest = self.manifest_store.latest()
            out["latest_manifest"] = (
                None if latest is None else latest.manifest_id
            )
        return out

    def health(self) -> dict:
        out = {
            "status": "draining" if self._draining else "ok",
            "active_connections": self._active,
            "max_connections": self.max_connections,
            "served_connections": self._served_connections,
            "epoch_progress": {
                str(r): e for r, e in self.coordinator.progress().items()
            },
            "stragglers": self.coordinator.stragglers(),
        }
        if hasattr(self.coordinator, "pinned"):
            out["pinned_manifests"] = {
                str(e): mid for e, mid in self.coordinator.pinned().items()
            }
        if self.admission is not None:
            out["admission"] = self.admission.report()
        return out

    def stats_report(self) -> dict:
        with self._stats_lock:
            snap = self.stats.snapshot()
        out: dict = {
            "counters": {k: {"n": n, "total": t} for k, (n, t) in snap.items()}
        }
        if self.cache is not None:
            cs = self.cache.stats
            out["cache"] = {
                "hits": cs.hits,
                "misses": cs.misses,
                "hit_rate": cs.hit_rate,
                "evictions": cs.evictions,
                "evicted_bytes": cs.evicted_bytes,
                "rejected": cs.rejected_oversize,
                "used_bytes": self.cache.used_bytes,
                "capacity_bytes": self.cache.capacity_bytes,
            }
        if self.admission is not None:
            out["admission"] = self.admission.report()
        return out
