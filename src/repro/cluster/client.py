"""Trainer-side cluster client: replica routing with failover.

:class:`ClusterSource` implements the ``SampleSource`` protocol against a
whole cluster: it fetches the dispatcher's versioned routing table,
routes every ``read(index)`` to one of the replicas holding that sample's
range, and fails over when a replica misbehaves:

* **connection failure / timeout** — the worker is marked *suspect* for a
  short backoff (it is skipped on the first routing pass until the
  backoff lapses) and the next replica is tried;
* **``BUSY`` shed** (admission control) — the replica is healthy but
  over budget; the next replica is tried immediately, remembering the
  server's ``retry_after_s`` hint;
* **wire corruption** (``CorruptSampleError``) — the next replica is
  tried; if *every* replica returns corrupt bytes the corruption is
  genuine (at rest) and is re-raised as-is so quarantine classifies it
  correctly;
* **stale table** — after one full pass fails, the table is force-
  refreshed from the dispatcher (picking up lease expiries and new
  registrations) and a second, last-resort pass tries every replica,
  suspects included.

Only when both passes fail does the client raise :class:`NoReplicaError`
— a *retryable* ``OSError`` tagged ``degraded=True`` and carrying a
``retry_after_s`` hint.  The composition contract: an outer
:class:`~repro.robust.retry.RetryingSource` retries it (honouring the
hint), and if the outage outlives the retry budget the loader's
``bad_sample_policy`` absorbs it (skip/substitute + quarantine) instead
of collapsing the epoch.  ``ClusterSource`` itself never sleeps in a
retry loop — backoff policy lives in exactly one place, the retry
decorator.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np

from repro.cluster.routing import RoutingTable
from repro.core.encoding.container import CorruptSampleError
from repro.observe import trace as observe
from repro.pipeline.sources import _check_index, _checked_slots
from repro.serve import protocol
from repro.serve.client import RemoteSource, ServerBusyError
from repro.tune.stats import StatsRegistry

__all__ = ["ClusterSource", "NoReplicaError"]


class NoReplicaError(OSError):
    """Every replica of a sample's range is unreachable, shedding, or gone.

    Retryable (``OSError``) and tagged ``degraded = True`` so the loader
    can tell a cluster brown-out from ordinary data corruption and apply
    ``bad_sample_policy`` accounting under ``loader.degraded``.
    ``retry_after_s`` carries the best backoff hint gathered from the
    failed attempts (a ``BUSY`` shed's token-refill time, or the suspect
    backoff), for :class:`~repro.robust.retry.RetryPolicy` to floor its
    next delay with.
    """

    degraded = True

    def __init__(
        self, message: str, *, retry_after_s: float = 0.0, attempts: int = 0
    ) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.attempts = attempts


class ClusterSource:
    """``SampleSource`` over a dispatcher-routed worker fleet.

    Parameters
    ----------
    dispatcher:
        ``(host, port)`` of the :class:`~repro.cluster.dispatcher.Dispatcher`.
    timeout_s / op_timeout_s:
        Forwarded to each per-worker :class:`RemoteSource` (socket and
        whole-op budgets).  Keep ``op_timeout_s`` small relative to the
        loader's retry budget — failover is only fast if a dead replica
        fails fast.
    suspect_backoff_s:
        How long a worker that failed at the transport level is skipped
        on first-pass routing.  Short by design: lease expiry (the
        dispatcher's view) is authoritative; this just keeps a flapping
        worker from slowing every read.
    seed:
        Salts the replica rotation and the per-worker reconnect jitter.
        The rotation uses the seed *directly* — give the fleet's clients
        dense seeds (their ranks) and every range's read load splits
        exactly evenly across its replicas, instead of binomially.
    stats:
        Optional shared :class:`StatsRegistry`; receives the
        ``cluster.*`` counters (reads, failovers, busy_sheds,
        route_refreshes, corrupt, no_replica).
    """

    def __init__(
        self,
        dispatcher: tuple[str, int],
        *,
        timeout_s: float = 30.0,
        op_timeout_s: float | None = None,
        suspect_backoff_s: float = 0.5,
        control_timeout_s: float = 5.0,
        seed: int = 0,
        stats: StatsRegistry | None = None,
    ) -> None:
        self.dispatcher = dispatcher
        self.timeout_s = timeout_s
        self.op_timeout_s = op_timeout_s
        self.suspect_backoff_s = suspect_backoff_s
        self.control_timeout_s = control_timeout_s
        self.seed = seed
        self.stats = stats if stats is not None else StatsRegistry()
        # the raw seed, not an rng draw: dense ranks → exact replica split
        self._salt = int(seed)
        self._lock = threading.Lock()  # guards table/pool/suspect maps
        self._pool: dict[str, RemoteSource] = {}
        self._suspect_until: dict[str, float] = {}
        self._table: RoutingTable | None = None
        self._table_at = 0.0
        self._refresh_table(force=True)

    # -- control plane -----------------------------------------------------

    def _dispatcher_frame(self, op: int, body: bytes = b"") -> bytes:
        """One-shot raw frame exchange with the dispatcher."""
        host, port = self.dispatcher
        with socket.create_connection(
            (host, port), timeout=self.control_timeout_s
        ) as sock:
            sock.settimeout(self.control_timeout_s)
            sock.sendall(protocol.pack_frame(op, body))
            frame = protocol.recv_frame(
                sock, frame_timeout_s=self.control_timeout_s
            )
        if frame is None:
            raise ConnectionError(
                f"dispatcher {host}:{port} closed the connection"
            )
        kind, payload = frame
        if kind == protocol.ST_ERROR:
            detail = protocol.unpack_json(payload)
            raise RuntimeError(
                f"{detail.get('error', 'Error')}: {detail.get('message', '')}"
            )
        if kind != protocol.ST_OK:
            raise protocol.ProtocolError(f"unexpected response kind {kind:#x}")
        return payload

    def _refresh_table(self, *, force: bool = False) -> RoutingTable:
        """Return a fresh-enough routing table, re-``ROUTE``-ing if stale."""
        now = time.monotonic()
        with self._lock:
            table = self._table
            if (
                not force
                and table is not None
                and now - self._table_at < table.ttl_s
            ):
                return table
        payload = self._dispatcher_frame(protocol.OP_ROUTE)
        fresh = RoutingTable.from_json(protocol.unpack_json(payload))
        with self._lock:
            self._table = fresh
            self._table_at = time.monotonic()
        self.stats.add("cluster.route_refreshes")
        return fresh

    @property
    def routing_version(self) -> int:
        """The membership version of the client's current table copy."""
        with self._lock:
            assert self._table is not None
            return self._table.version

    def epoch_shard(self, rank: int, epoch: int) -> np.ndarray:
        """This rank's cluster-wide epoch shard, from the dispatcher."""
        body = self._dispatcher_frame(
            protocol.OP_EPOCH, protocol.pack_epoch(rank, epoch)
        )
        return protocol.unpack_indices(body)

    # -- data plane --------------------------------------------------------

    def _connection(self, worker_id: str, address: tuple) -> RemoteSource:
        """The pooled connection to one worker, (re)built on address change.

        Construction performs the ``INFO`` handshake, so it can raise
        ``OSError`` — the caller treats that as a transport failure.
        """
        with self._lock:
            conn = self._pool.get(worker_id)
            if conn is not None and (conn.host, conn.port) == address:
                return conn
        fresh = RemoteSource(
            address[0],
            address[1],
            timeout_s=self.timeout_s,
            op_timeout_s=self.op_timeout_s,
            seed=self.seed,
            stats=self.stats,
        )
        with self._lock:
            stale = self._pool.get(worker_id)
            self._pool[worker_id] = fresh
        if stale is not None:
            stale.close()
        return fresh

    def _mark_suspect(self, worker_id: str) -> None:
        with self._lock:
            self._suspect_until[worker_id] = (
                time.monotonic() + self.suspect_backoff_s
            )
            conn = self._pool.pop(worker_id, None)
        if conn is not None:
            conn.close()

    def _is_suspect(self, worker_id: str) -> bool:
        with self._lock:
            return time.monotonic() < self._suspect_until.get(worker_id, 0.0)

    def __len__(self) -> int:
        with self._lock:
            assert self._table is not None
            return self._table.n_samples

    def _routing_table(self, *, force: bool = False) -> RoutingTable:
        """The table to route on: refreshed, or the stale copy.

        When the dispatcher is unreachable or (worse) reports zero live
        workers, route on the stale copy rather than surface a
        control-plane error from a data-plane read; if the replicas
        really are gone the read still ends in the retryable
        :class:`NoReplicaError`.
        """
        try:
            return self._refresh_table(force=force)
        except (OSError, RuntimeError):
            self.stats.add("cluster.route_errors")
            with self._lock:
                assert self._table is not None
                return self._table

    def _replicas(self, table: RoutingTable, index: int) -> list[str]:
        """``index``'s replicas, rotated by the client's salt so different
        clients spread load."""
        replicas = table.replicas(index)
        offset = (index + self._salt) % len(replicas)
        return replicas[offset:] + replicas[:offset]

    def read(self, index: int) -> bytes:
        """Fetch one blob from any live replica of ``index``'s range.

        Pass 1 walks the replicas skipping suspects; pass 2 runs on a
        force-refreshed table and tries everything.  See the module
        docstring for the failure contract.
        """
        _check_index(index, len(self))
        busy_hint = 0.0
        attempts = 0
        transport_failures = 0
        last_corrupt: CorruptSampleError | None = None
        for last_resort in (False, True):
            table = self._routing_table(force=last_resort)
            for worker_id in self._replicas(table, index):
                if not last_resort and self._is_suspect(worker_id):
                    continue
                attempts += 1
                try:
                    # one span per attempt: a failover reads as sibling
                    # cluster.attempt spans under the same parent, each
                    # naming the replica it tried
                    with observe.span(
                        "cluster.attempt", worker=worker_id, index=index,
                        attempt=attempts, last_resort=last_resort,
                    ):
                        conn = self._connection(
                            worker_id, table.address(worker_id)
                        )
                        blob = conn.read(index)
                except ServerBusyError as exc:
                    self.stats.add("cluster.busy_sheds")
                    busy_hint = max(busy_hint, exc.retry_after_s)
                    continue
                except CorruptSampleError as exc:
                    self.stats.add("cluster.corrupt")
                    last_corrupt = exc
                    continue
                except (OSError, TimeoutError):
                    self.stats.add("cluster.failovers")
                    transport_failures += 1
                    self._mark_suspect(worker_id)
                    continue
                self.stats.add("cluster.reads")
                return blob
        if last_corrupt is not None and transport_failures == 0 and not busy_hint:
            # every replica served the sample and every copy failed its
            # checksum: at-rest corruption, not a cluster outage — let
            # quarantine classify it
            raise last_corrupt
        self.stats.add("cluster.no_replica")
        raise NoReplicaError(
            f"no live replica served sample {index} "
            f"({attempts} attempts across 2 routing passes)",
            retry_after_s=busy_hint or self.suspect_backoff_s,
            attempts=attempts,
        )

    def read_batch_slots(self, indices) -> list:
        """Batched cluster read: route per replica, fail over per slot.

        Indices are grouped by their first-choice replica (same rotated
        routing as :meth:`read`) and each group travels in one
        ``READ_BATCH`` round-trip.  Any index whose group or slot fails —
        a dead/shedding replica, a corrupt copy — is retried through the
        scalar :meth:`read` failover path, so the batch plane can only
        ever *add* round-trip amortization, never weaken the failover
        contract.  Each slot holds the blob or the exception the scalar
        path finally raised; an out-of-range index fails its own slot.
        """
        indices = [int(i) for i in indices]
        slots, todo = _checked_slots(indices, len(self))
        if not todo:
            return slots
        table = self._routing_table()
        # first-choice replica per index, skipping suspects
        groups: dict[str, list[int]] = {}
        for pos in todo:
            ordered = self._replicas(table, indices[pos])
            chosen = next(
                (w for w in ordered if not self._is_suspect(w)), ordered[0]
            )
            groups.setdefault(chosen, []).append(pos)
        fallback: list[int] = []
        for worker_id, members in groups.items():
            try:
                with observe.span(
                    "cluster.batch", worker=worker_id, n=len(members)
                ):
                    conn = self._connection(
                        worker_id, table.address(worker_id)
                    )
                    replies = conn.read_batch_slots(
                        [indices[pos] for pos in members]
                    )
            except (OSError, TimeoutError):
                self.stats.add("cluster.failovers")
                self._mark_suspect(worker_id)
                fallback.extend(members)
                continue
            except Exception:  # noqa: BLE001 — e.g. old server: no READ_BATCH
                fallback.extend(members)
                continue
            for pos, reply in zip(members, replies):
                if isinstance(reply, Exception):
                    fallback.append(pos)
                else:
                    self.stats.add("cluster.reads")
                    slots[pos] = reply
        for pos in fallback:
            try:
                slots[pos] = self.read(indices[pos])
            except Exception as exc:  # noqa: BLE001 — slot-isolated
                slots[pos] = exc
        return slots

    # -- lifecycle / reports -----------------------------------------------

    def close(self) -> None:
        with self._lock:
            pool, self._pool = dict(self._pool), {}
            self._suspect_until.clear()
        for conn in pool.values():
            conn.close()

    def __enter__(self) -> "ClusterSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def status(self) -> dict:
        """Cluster view via ``LEASE {"action": "status"}`` (CLI/monitoring)."""
        return protocol.unpack_json(
            self._dispatcher_frame(
                protocol.OP_LEASE, protocol.pack_json({"action": "status"})
            )
        )
