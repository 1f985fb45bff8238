"""Trainer-side client of the data service.

:class:`RemoteSource` implements the ``SampleSource`` protocol over a TCP
connection to a :class:`~repro.serve.server.DataServer`, so the entire
existing data path composes unchanged around a network hop::

    RetryingSource(FaultInjector(RemoteSource(host, port), plan), verify=True)
    CachedSource(RemoteSource(host, port), SampleCache(...), verify=True)
    DataLoader(RemoteSource(host, port), plugin, ...)

Failure semantics (what makes that composition sound):

* a dropped/broken connection raises ``ConnectionError``/``OSError`` and
  the next ``read()`` transparently reconnects — with capped exponential
  backoff and seeded jitter between attempts, so a dead server is probed
  at a bounded rate instead of hammered in a hot loop; a wrapping
  :class:`~repro.robust.retry.RetryingSource` turns transport blips into
  clean re-reads;
* every operation carries a wall-clock deadline (``op_timeout_s``,
  distinct from the per-I/O socket timeout): a stalled server that
  trickles bytes cannot wedge a prefetch worker past the loader's retry
  budget — the op aborts with ``TimeoutError`` when the budget is spent;
* a response frame whose body fails the wire CRC raises
  :class:`~repro.core.encoding.container.CorruptSampleError` (retryable,
  quarantinable) — corrupted sample bytes are *never* returned;
* an ``ST_BUSY`` response (admission-control shed) raises
  :class:`ServerBusyError` — a retryable ``OSError`` carrying the
  server's ``retry_after_s`` backoff hint, which ``RetryingSource``
  honours and :class:`~repro.cluster.client.ClusterSource` answers by
  re-routing to a replica;
* server-side errors are re-raised faithfully: ``IndexError`` stays
  ``IndexError`` (never retried into an infinite loop),
  ``CorruptSampleError`` stays corrupt, transient server I/O failures
  come back as retryable ``OSError``.

``read()`` is serialized by an internal lock, so one ``RemoteSource`` can
be shared by all of a loader's worker threads; scale-out comes from one
``RemoteSource`` (one connection) per trainer process/rank.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np

from repro.core.encoding.container import CorruptSampleError
from repro.observe import trace as observe
from repro.observe.wire import TraceContext, pack_trace_context
from repro.pipeline.sources import _check_index, _checked_slots
from repro.serve import protocol
from repro.tune.stats import StatsRegistry

__all__ = ["RemoteSource", "RemoteOpError", "ServerBusyError"]


class RemoteOpError(RuntimeError):
    """The server reported an error the client cannot map to a local type."""


class ServerBusyError(OSError):
    """The server shed this request under admission control.

    A retryable ``OSError`` (so the default :class:`RetryingSource`
    policy covers it) carrying the server's backoff hint as
    ``retry_after_s`` and the shed ``reason`` (``"tokens"`` /
    ``"inflight"``).  The connection stays usable — being shed is not a
    transport fault.
    """

    def __init__(
        self, message: str, *, retry_after_s: float = 0.0, reason: str = ""
    ) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.reason = reason


#: server-reported exception type → faithful local re-raise
_REMOTE_ERRORS = {
    "IndexError": IndexError,
    "KeyError": KeyError,
    "ValueError": ValueError,
    "OSError": OSError,
    "IOError": OSError,
    "ConnectionError": ConnectionError,
    "TimeoutError": TimeoutError,
    "FileNotFoundError": OSError,
}


class RemoteSource:
    """``SampleSource`` over the :mod:`repro.serve` wire protocol.

    Parameters
    ----------
    host / port:
        The serving :class:`~repro.serve.server.DataServer` (or any
        :class:`~repro.serve.server.FrameServer`).
    timeout_s:
        Socket timeout for connect and each individual frame I/O.
    op_timeout_s:
        Wall-clock budget for one whole operation — connect (including
        reconnect backoff), send, and the complete response frame.
        Defaults to ``timeout_s``; expiry raises ``TimeoutError``
        (retryable by :class:`RetryingSource`).
    reconnect_backoff_s / reconnect_max_s:
        Reconnect pacing after a failed connect attempt: attempt ``k``
        waits ``reconnect_backoff_s * 2**(k-1)`` (capped at
        ``reconnect_max_s``) with ±50% seeded jitter before dialing
        again.  A successful connect resets the schedule.
    seed:
        Seeds the jitter RNG so chaos replays stay deterministic.
    stats:
        Optional :class:`StatsRegistry` receiving ``remote.reconnects``,
        ``remote.connect_failures`` and ``remote.busy`` counters; a
        private one is created otherwise and exposed as :attr:`stats`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout_s: float = 30.0,
        op_timeout_s: float | None = None,
        reconnect_backoff_s: float = 0.05,
        reconnect_max_s: float = 2.0,
        seed: int = 0,
        stats: StatsRegistry | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.op_timeout_s = timeout_s if op_timeout_s is None else op_timeout_s
        self.reconnect_backoff_s = reconnect_backoff_s
        self.reconnect_max_s = reconnect_max_s
        self.stats = stats if stats is not None else StatsRegistry()
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._connect_failures = 0  # consecutive, resets on success
        self._connect_not_before = 0.0  # monotonic backoff gate
        self._n: int | None = None
        self._info: dict | None = None
        with self._lock:
            self._info = self._request_json(protocol.OP_INFO)
            self._n = int(self._info["n_samples"])
        # capability negotiation: only attach trace-context headers to
        # servers that advertise parsing (or skipping) them — servers
        # predating the header reject extended READ bodies
        self._trace_headers = bool(self._info.get("trace_headers", False))

    # -- connection management --------------------------------------------

    def _connect(self, deadline: float) -> socket.socket:
        """Dial the server, pacing attempts by the backoff schedule."""
        wait = self._connect_not_before - time.monotonic()
        if wait > 0:
            if time.monotonic() + wait > deadline:
                raise TimeoutError(
                    f"reconnect backoff ({wait:.3f}s) exceeds the op "
                    f"deadline for {self.host}:{self.port}"
                )
            time.sleep(wait)
        try:
            sock = socket.create_connection(
                (self.host, self.port),
                timeout=min(self.timeout_s, max(deadline - time.monotonic(), 0.001)),
            )
        except OSError:
            self._connect_failures += 1
            self.stats.add("remote.connect_failures")
            backoff = min(
                self.reconnect_backoff_s * 2.0 ** (self._connect_failures - 1),
                self.reconnect_max_s,
            )
            # ±50% seeded jitter de-synchronizes a thundering herd
            backoff *= 0.5 + self._rng.random()
            self._connect_not_before = time.monotonic() + backoff
            raise
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._connect_failures:
            self.stats.add("remote.reconnects")
        self._connect_failures = 0
        self._connect_not_before = 0.0
        return sock

    @property
    def reconnect_attempts(self) -> int:
        """Consecutive failed connect attempts (0 while connected)."""
        return self._connect_failures

    def _ensure(self, deadline: float) -> socket.socket:
        if self._sock is None:
            self._sock = self._connect(deadline)
        return self._sock

    def _drop(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            self._drop()

    def __enter__(self) -> "RemoteSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- round trips -------------------------------------------------------

    def _round_trip(self, op: int, body: bytes, *, context=None) -> bytes:
        """One request/response exchange.  Caller holds the lock.

        The whole exchange shares one ``op_timeout_s`` wall-clock budget;
        each socket wait is additionally capped by ``timeout_s``.
        Transport failures close the socket (the next call reconnects) and
        propagate as ``OSError``; a CRC-damaged response surfaces as
        :class:`CorruptSampleError`, and an ``ST_BUSY`` shed as
        :class:`ServerBusyError`, both without dropping the (still
        synchronized) connection.
        """
        deadline = time.monotonic() + self.op_timeout_s
        sock = self._ensure(deadline)
        try:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"op deadline spent before the request was sent "
                    f"({self.op_timeout_s}s)"
                )
            sock.settimeout(min(self.timeout_s, remaining))
            sock.sendall(protocol.pack_frame(op, body))
            frame = protocol.recv_frame(
                sock,
                frame_timeout_s=min(
                    self.timeout_s, max(deadline - time.monotonic(), 0.001)
                ),
            )
        except protocol.FrameCorruptError:
            raise CorruptSampleError(
                "response frame failed wire CRC",
                sample_id=context,
                section="frame",
            ) from None
        except (protocol.ProtocolError, OSError):
            self._drop()
            raise
        if frame is None:
            self._drop()
            raise ConnectionError(
                f"server {self.host}:{self.port} closed the connection"
            )
        kind, payload = frame
        if kind == protocol.ST_BUSY:
            self._raise_busy(payload)
        if kind == protocol.ST_ERROR:
            raise self._remote_error(payload, context)
        if kind != protocol.ST_OK:
            self._drop()
            raise protocol.ProtocolError(f"unexpected response kind {kind:#x}")
        return payload

    def _raise_busy(self, payload: bytes) -> None:
        detail = protocol.unpack_json(payload)
        self.stats.add("remote.busy")
        raise ServerBusyError(
            f"server {self.host}:{self.port} shed the request "
            f"({detail.get('reason', '?')})",
            retry_after_s=float(detail.get("retry_after_s", 0.0)),
            reason=str(detail.get("reason", "")),
        )

    def _remote_error(self, payload: bytes, context) -> Exception:
        """The local exception an error payload denotes — the body of an
        ``ST_ERROR`` frame or of one ``SLOT_ERROR`` slot."""
        detail = protocol.unpack_json(payload)
        name = str(detail.get("error", "RemoteOpError"))
        message = str(detail.get("message", "remote operation failed"))
        if name in ("CorruptSampleError", "FrameCorruptError"):
            exc: Exception = CorruptSampleError(
                message, sample_id=context, section=detail.get("section")
            )
        else:
            exc_type = _REMOTE_ERRORS.get(name)
            if exc_type is not None:
                exc = exc_type(message)
            else:
                exc = RemoteOpError(f"{name}: {message}")
        # a traced server echoes the trace id; keep it on the exception
        # so FailedItem/QuarantineLog can link back to the span tree
        tid = detail.get("trace_id")
        if tid:
            try:
                exc.trace_id = int(str(tid), 16)
            except ValueError:
                pass
        return exc

    def _request_json(self, op: int) -> dict:
        return protocol.unpack_json(self._round_trip(op, b""))

    def request(self, op: int, body: bytes = b"", *, context=None) -> bytes:
        """One locked request/response exchange (cluster control plane)."""
        with self._lock:
            return self._round_trip(op, body, context=context)

    def request_json(self, op: int, obj: dict | None = None) -> dict:
        """A JSON-bodied exchange: ``obj`` out, parsed JSON object back."""
        body = b"" if obj is None else protocol.pack_json(obj)
        return protocol.unpack_json(self.request(op, body))

    # -- SampleSource protocol --------------------------------------------

    def __len__(self) -> int:
        assert self._n is not None
        return self._n

    def _trace_tail(self) -> bytes:
        """The trace-context header for the current request, or ``b""``.

        Non-empty only when this thread is inside an active trace *and*
        the server negotiated header support; the propagated parent is
        the innermost open span (the ``wire.rpc`` span at call sites),
        so the server's ``server.handle`` stitches directly under it.
        """
        if not self._trace_headers:
            return b""
        trace = observe.current_trace()
        if trace is None:
            return b""
        return pack_trace_context(
            TraceContext(trace.trace_id, trace.stack[-1], trace.sampled)
        )

    def read(self, index: int) -> bytes:
        """Fetch one container blob.  Raises ``IndexError`` out of range."""
        _check_index(index, len(self))
        with observe.span("wire.rpc", op="read", index=index):
            body = protocol.pack_read(index, trace=self._trace_tail())
            with self._lock:
                return self._round_trip(
                    protocol.OP_READ, body, context=index
                )

    def read_batch_slots(self, indices) -> list:
        """Many blobs in one ``READ_BATCH`` round-trip, per-slot errors.

        Returns one entry per requested index, *in request order*: the
        container blob, or the ``Exception`` the server reported for that
        sample (mapped through the same taxonomy as :meth:`read` — a
        corrupt sample stays a quarantinable ``CorruptSampleError``, a
        transient server I/O failure stays a retryable ``OSError``).  An
        out-of-range index fails its own slot with ``IndexError`` and is
        never sent.  Whole-exchange failures — transport faults, a
        CRC-damaged batch frame, an ``ST_BUSY`` shed — raise exactly as
        :meth:`read` does: no slot survives a broken frame.
        """
        indices = [int(i) for i in indices]
        slots, todo = _checked_slots(indices, len(self))
        if not todo:
            return slots
        wanted = [indices[pos] for pos in todo]
        with observe.span("wire.rpc", op="read_batch", n=len(wanted)):
            request = protocol.pack_indices(
                np.asarray(wanted, dtype=np.int64), trace=self._trace_tail()
            )
            with self._lock:
                body = self._round_trip(
                    protocol.OP_READ_BATCH, request, context=tuple(wanted)
                )
        raw = protocol.unpack_batch_reply(body)
        if len(raw) != len(wanted):
            self._drop()  # server answered a different question: resync
            raise protocol.ProtocolError(
                f"READ_BATCH answered {len(raw)} slots for "
                f"{len(wanted)} indices"
            )
        self.stats.add("remote.read_batch", n=1)
        for pos, (status, payload) in zip(todo, raw):
            if status == protocol.SLOT_OK:
                slots[pos] = payload.tobytes()
            else:
                slots[pos] = self._remote_error(bytes(payload), indices[pos])
        return slots

    # -- service ops -------------------------------------------------------

    def info(self) -> dict:
        """Dataset/server facts (cached from the constructor handshake)."""
        assert self._info is not None
        return dict(self._info)

    def stats_report(self) -> dict:
        """Live server-side counter snapshot (``STATS`` op)."""
        with self._lock:
            return self._request_json(protocol.OP_STATS)

    def metrics(self, trace_id: int | str | None = None) -> dict:
        """Live observability scrape (``METRICS`` op).

        Counters plus the server's span-stats summary; pass a trace id
        (int or hex string) to also fetch every span the server holds
        for that trace — the ingredients of a stitched cross-process
        tree (:func:`repro.observe.stitch`).
        """
        obj: dict = {}
        if trace_id is not None:
            obj["trace_id"] = (
                format(trace_id, "x")
                if isinstance(trace_id, int)
                else str(trace_id)
            )
        return self.request_json(protocol.OP_METRICS, obj)

    # back-compat alias: pre-cluster callers used ``stats()`` for the
    # server snapshot; ``stats`` is now the client-side StatsRegistry
    def health(self) -> dict:
        """Liveness/drain/progress report (``HEALTH`` op)."""
        with self._lock:
            return self._request_json(protocol.OP_HEALTH)

    def epoch_shard(self, rank: int, epoch: int) -> np.ndarray:
        """This rank's deterministic shard of one epoch (``EPOCH`` op)."""
        with self._lock:
            body = self._round_trip(
                protocol.OP_EPOCH, protocol.pack_epoch(rank, epoch)
            )
        return protocol.unpack_indices(body)

    # -- online ingestion (snapshot manifests) -----------------------------

    def manifest(self, manifest_id: str | None = None) -> dict | None:
        """A published snapshot manifest (``MANIFEST`` op).

        The latest one by default (``None`` if nothing is published
        yet), or a specific immutable snapshot by id.  Servers without a
        manifest store answer with an error (surfaced as ``ValueError``).
        """
        obj = {} if manifest_id is None else {"id": manifest_id}
        return self.request_json(protocol.OP_MANIFEST, obj).get("manifest")

    def epoch_shard_manifest(
        self, rank: int, epoch: int
    ) -> tuple[str, int, np.ndarray]:
        """Begin a manifest-pinned epoch (``EPOCH_MANIFEST`` op).

        Returns ``(manifest_id, n_samples, indices)``: the id of the
        snapshot the server pinned this epoch to, the snapshot's total
        sample count, and this rank's shard of it.  The client's own
        view of the dataset grows to ``n_samples`` — an ingest-backed
        server keeps appending between epochs, and subsequent ``read``
        calls may now address the newly published samples.
        """
        with self._lock:
            body = self._round_trip(
                protocol.OP_EPOCH_MANIFEST, protocol.pack_epoch(rank, epoch)
            )
        manifest_id, n_samples, indices = protocol.unpack_manifest_shard(body)
        if self._n is None or n_samples > self._n:
            self._n = int(n_samples)
        return manifest_id, int(n_samples), indices

    def manifest_order_fn(self, rank: int):
        """An ``epoch -> indices`` callable for ``DataLoader(order_fn=)``.

        Each epoch it asks the server for this rank's manifest-pinned
        shard, growing the source's sample range as snapshots publish —
        the loader-side hookup for training against a live ingest
        server (``DataLoader.reconfigure(order_fn=...)`` adopts it on an
        existing loader).
        """

        def order(epoch: int) -> np.ndarray:
            return self.epoch_shard_manifest(rank, epoch)[2]

        return order
