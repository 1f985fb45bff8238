"""Wire protocol of the sample-serving data service.

A deliberately small length-prefixed binary protocol, in the spirit of the
record framing in :mod:`repro.storage.tfrecord`: every message on the wire
is one *frame*, and every request frame is answered by exactly one
response frame on the same connection (strict request/response, no
pipelining within a connection — concurrency comes from multiple
connections).

Frame layout (little-endian)::

    u32 magic ("RSV1") | u8 kind | u32 body_len | body | u32 crc32(body)

``kind`` is an op code for requests and a status code for responses.
The trailing CRC32 protects the body in flight: a client never hands
corrupted sample bytes to a decoder — a mismatch raises
:class:`FrameCorruptError`, which :class:`~repro.serve.client.RemoteSource`
surfaces as a retryable
:class:`~repro.core.encoding.container.CorruptSampleError`.

Request bodies::

    READ       u64 index              → OK body = container blob
    INFO       (empty)                → OK body = JSON dataset/server facts
    STATS      (empty)                → OK body = JSON counter snapshot
    HEALTH     (empty)                → OK body = JSON liveness report
    EPOCH      u32 rank | u64 epoch   → OK body = u32 count | count × u64
    READ_BATCH u32 count | count × u64 index
               → OK body = u32 count | count × (u8 slot_status | u32 len | payload)
    MANIFEST   JSON {} or {"id": ...} → OK body = JSON {"manifest": ...}
    EPOCH_MANIFEST u32 rank | u64 epoch
               → OK body = u16 id_len | id | u64 n_samples | u32 count | count × u64
    METRICS    JSON {} or {"trace_id": <hex>}
               → OK body = JSON counters + span stats (+ spans of one trace)

``READ`` and ``READ_BATCH`` request bodies may carry an **optional
trace-context header** after their fixed part (the self-describing TLV
of :mod:`repro.observe.wire`), so a client span and the server spans it
causes stitch into one tree.  The fixed part is self-delimiting, a
server without a trace recorder skips the tail unread, and clients only
attach it once the ``INFO`` handshake advertises ``trace_headers`` —
servers predating the header never see it, so mixed-version deployments
stay compatible.  Scalar error replies propagate the context back as a
``trace_id`` key in their JSON body (unknown JSON keys were always
ignored, so old clients are unaffected).

``MANIFEST``/``EPOCH_MANIFEST`` are the online-ingestion extension
(:mod:`repro.ingest`): ``MANIFEST`` fetches a published snapshot
manifest (latest, or by id), and ``EPOCH_MANIFEST`` extends ``EPOCH``
with the id and sample count of the manifest the epoch was pinned to —
what a client needs to replay the epoch bit-identically and to grow its
view of the dataset between epochs.  ``EPOCH`` stays wire-compatible
for static-dataset clients.

``READ_BATCH`` is the batch plane: one round-trip carries many container
blobs, amortizing per-request latency.  Each response *slot* stands alone:
``slot_status`` is :data:`SLOT_OK` (payload = the blob) or
:data:`SLOT_ERROR` (payload = the same JSON error object an ``ST_ERROR``
frame would carry), so one corrupt sample quarantines by itself while the
rest of the batch is delivered.  A whole-frame CRC failure still damages
every slot at once — that is exactly the retryable
:class:`FrameCorruptError` case below.

The cluster control plane (:mod:`repro.cluster`) adds four JSON-bodied
ops — control traffic is rare, so compactness matters less than being
able to evolve the schemas:

    REGISTER  JSON worker announcement → OK body = JSON lease grant
    HEARTBEAT JSON lease renewal       → OK body = JSON lease state
    ROUTE     JSON (may be empty)      → OK body = JSON routing table
    LEASE     JSON admin action        → OK body = JSON membership view

Error responses carry ``kind = ST_ERROR`` and a JSON body
``{"error": <exception type name>, "message": ..., "section": ...?}`` so
the client can re-raise a faithful local exception (``IndexError`` stays
``IndexError``, ``CorruptSampleError`` stays corrupt-and-quarantinable,
transient server I/O errors stay retryable ``OSError``).

A third response kind, ``ST_BUSY``, is the admission-control shed: the
server is alive and the stream is in sync, but this request was refused
under overload.  The JSON body carries ``{"retry_after_s": ..., "reason":
...}``; clients surface it as a retryable
:class:`~repro.serve.client.ServerBusyError` and either back off or
re-route to a replica (:class:`~repro.cluster.client.ClusterSource`).

Failure taxonomy — load-bearing for the retry stack:

* :class:`ProtocolError` (a ``ConnectionError``) — the byte stream is
  broken (bad magic, truncation mid-frame, oversized length): the
  connection is unusable and must be reopened.
* :class:`FrameCorruptError` — the frame parsed but its body failed the
  CRC: the stream is still synchronized, only this payload is damaged.
"""

from __future__ import annotations

import json
import socket
import struct
import time
import zlib

import numpy as np

from repro.observe.wire import unpack_trace_context

__all__ = [
    "MAGIC",
    "OP_READ",
    "OP_INFO",
    "OP_STATS",
    "OP_HEALTH",
    "OP_EPOCH",
    "OP_REGISTER",
    "OP_HEARTBEAT",
    "OP_ROUTE",
    "OP_LEASE",
    "OP_READ_BATCH",
    "OP_MANIFEST",
    "OP_EPOCH_MANIFEST",
    "OP_METRICS",
    "ST_OK",
    "ST_ERROR",
    "ST_BUSY",
    "SLOT_OK",
    "SLOT_ERROR",
    "MAX_BODY_BYTES",
    "ProtocolError",
    "FrameCorruptError",
    "pack_frame",
    "frame_parts",
    "send_frame",
    "recv_frame",
    "pack_read",
    "unpack_read",
    "unpack_read_traced",
    "unpack_indices_traced",
    "pack_epoch",
    "unpack_epoch",
    "pack_indices",
    "unpack_indices",
    "pack_manifest_shard",
    "unpack_manifest_shard",
    "batch_reply_parts",
    "unpack_batch_reply",
    "pack_json",
    "unpack_json",
]

MAGIC = b"RSV1"

#: request op codes
OP_READ = 0x01
OP_INFO = 0x02
OP_STATS = 0x03
OP_HEALTH = 0x04
OP_EPOCH = 0x05
#: cluster control plane (JSON bodies; see repro.cluster)
OP_REGISTER = 0x06
OP_HEARTBEAT = 0x07
OP_ROUTE = 0x08
OP_LEASE = 0x09
#: batch data plane: many blobs per round-trip (see module docstring)
OP_READ_BATCH = 0x0A
#: online ingestion (repro.ingest): snapshot manifest fetch and the
#: manifest-pinned EPOCH extension
OP_MANIFEST = 0x0B
OP_EPOCH_MANIFEST = 0x0C
#: observability plane (repro.observe): live counter + span-stats scrape
OP_METRICS = 0x0D

#: response status codes (high bit set so a stray request/response mixup
#: is caught immediately instead of being misparsed)
ST_OK = 0x80
ST_ERROR = 0x81
#: admission-control shed: request refused under overload, retryable,
#: stream still in sync (JSON body: retry_after_s, reason)
ST_BUSY = 0x82

#: per-slot statuses inside a READ_BATCH reply body
SLOT_OK = 0x00
SLOT_ERROR = 0x01

KINDS = frozenset(
    {
        OP_READ,
        OP_INFO,
        OP_STATS,
        OP_HEALTH,
        OP_EPOCH,
        OP_REGISTER,
        OP_HEARTBEAT,
        OP_ROUTE,
        OP_LEASE,
        OP_READ_BATCH,
        OP_MANIFEST,
        OP_EPOCH_MANIFEST,
        OP_METRICS,
        ST_OK,
        ST_ERROR,
        ST_BUSY,
    }
)

#: sanity bound on one frame body — far above any encoded sample, far
#: below a garbage length read from a desynchronized stream
MAX_BODY_BYTES = 1 << 30

_HEAD = struct.Struct("<4sBI")
_CRC = struct.Struct("<I")
_READ_BODY = struct.Struct("<Q")
_EPOCH_BODY = struct.Struct("<IQ")
_COUNT = struct.Struct("<I")
_SLOT = struct.Struct("<BI")
_ID_LEN = struct.Struct("<H")
_N_SAMPLES = struct.Struct("<Q")


class ProtocolError(ConnectionError):
    """The frame stream is damaged; the connection cannot be reused."""


class FrameCorruptError(Exception):
    """A frame body failed its CRC; the stream itself is still in sync."""


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def pack_frame(kind: int, body: bytes = b"") -> bytes:
    """Serialize one frame (request or response)."""
    if kind not in KINDS:
        raise ValueError(f"unknown frame kind {kind:#x}")
    if len(body) > MAX_BODY_BYTES:
        raise ValueError(f"frame body of {len(body)} bytes exceeds protocol cap")
    return b"".join(
        [_HEAD.pack(MAGIC, kind, len(body)), body, _CRC.pack(_crc(body))]
    )


def frame_parts(kind: int, parts: list) -> list:
    """Scatter-gather frame assembly: the frame as a buffer list.

    Returns ``[header, *parts, crc]`` **without concatenating** the body —
    each element of ``parts`` (``bytes``/``memoryview``/``bytearray``) is
    placed in the output list *by reference*, and the trailing CRC is
    computed incrementally over the parts.  Wire-identical to
    ``pack_frame(kind, b"".join(parts))``, but a multi-megabyte sample
    blob is never copied into an intermediate body; hand the list to
    :func:`send_frame` (``sendmsg``) or ``socket.sendmsg`` directly.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown frame kind {kind:#x}")
    body_len = 0
    crc = 0
    for part in parts:
        body_len += len(part)
        crc = zlib.crc32(part, crc)
    if body_len > MAX_BODY_BYTES:
        raise ValueError(f"frame body of {body_len} bytes exceeds protocol cap")
    out = [_HEAD.pack(MAGIC, kind, body_len)]
    out.extend(parts)
    out.append(_CRC.pack(crc & 0xFFFFFFFF))
    return out


def send_frame(sock: socket.socket, kind: int, parts: list) -> int:
    """Send a frame as a scatter-gather buffer list (``sendmsg``).

    The kernel gathers the buffers straight from their owners — no
    userspace concatenation.  Handles short writes by advancing
    memoryviews over the remaining buffers.  Returns the total bytes
    sent (header + body + CRC).
    """
    bufs = [memoryview(p).cast("B") for p in frame_parts(kind, parts)]
    total = sum(len(b) for b in bufs)
    sent_total = 0
    while bufs:
        sent = sock.sendmsg(bufs[:1024])  # stay under IOV_MAX
        sent_total += sent
        while sent:
            if sent >= len(bufs[0]):
                sent -= len(bufs.pop(0))
            else:
                bufs[0] = bufs[0][sent:]
                sent = 0
    assert sent_total == total
    return sent_total


def _recv_exact(
    sock: socket.socket, n: int, deadline: float | None
) -> bytearray:
    """Read exactly ``n`` bytes, riding out poll timeouts until ``deadline``.

    The socket may carry a short poll timeout (the server uses one to
    notice drain requests between frames); once a frame has *started*,
    those polls must not abandon it mid-way — we keep reading until the
    hard deadline, then declare the stream broken.
    """
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except socket.timeout:
            if deadline is not None and time.monotonic() > deadline:
                raise ProtocolError(
                    f"timed out mid-frame after {len(buf)}/{n} bytes"
                ) from None
            continue
        if not chunk:
            raise ProtocolError(f"connection closed mid-frame ({len(buf)}/{n} bytes)")
        buf.extend(chunk)
    return buf


def recv_frame(
    sock: socket.socket, *, frame_timeout_s: float = 30.0
) -> tuple[int, bytes] | None:
    """Read one complete frame from a socket.

    Returns ``(kind, body)``, or ``None`` on a clean EOF at a frame
    boundary (the peer closed between requests).  A ``socket.timeout`` is
    raised only when *no* frame bytes have arrived yet, so callers can use
    a short socket timeout as a poll interval; once the first byte lands
    the whole frame is read or the stream is declared broken.
    """
    first = sock.recv(1)  # may raise socket.timeout: nothing consumed yet
    if not first:
        return None
    deadline = time.monotonic() + frame_timeout_s
    head = bytes(first) + bytes(_recv_exact(sock, _HEAD.size - 1, deadline))
    magic, kind, body_len = _HEAD.unpack(head)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if kind not in KINDS:
        raise ProtocolError(f"unknown frame kind {kind:#x}")
    if body_len > MAX_BODY_BYTES:
        raise ProtocolError(f"frame body length {body_len} exceeds protocol cap")
    body = bytes(_recv_exact(sock, body_len, deadline))
    (crc,) = _CRC.unpack(bytes(_recv_exact(sock, _CRC.size, deadline)))
    if crc != _crc(body):
        raise FrameCorruptError(
            f"frame body CRC mismatch (kind {kind:#x}, {body_len} bytes)"
        )
    return kind, body


# -- op body codecs ---------------------------------------------------------


def pack_read(index: int, trace: bytes = b"") -> bytes:
    """Body of a ``READ`` request: the sample index as ``u64``.

    ``trace`` is an optional trace-context header
    (:func:`repro.observe.wire.pack_trace_context`), appended after the
    fixed part — only send it to servers whose ``INFO`` advertises
    ``trace_headers``.
    """
    if index < 0:
        raise ValueError("sample index must be non-negative on the wire")
    if trace:
        return _READ_BODY.pack(index) + trace
    return _READ_BODY.pack(index)


def _read_prefix(body: bytes) -> tuple[int, bytes]:
    """Split a ``READ`` body into ``(index, tail)``."""
    if len(body) < _READ_BODY.size:
        raise ProtocolError(f"READ body must be >= {_READ_BODY.size} bytes")
    return _READ_BODY.unpack_from(body)[0], body[_READ_BODY.size:]


def unpack_read(body: bytes) -> int:
    """Parse a bare ``READ`` request body back into a sample index."""
    index, tail = _read_prefix(body)
    if tail:
        raise ProtocolError(f"READ body must be {_READ_BODY.size} bytes")
    return index


def unpack_read_traced(body: bytes):
    """Parse a ``READ`` body, tolerating a trailing trace-context header.

    Returns ``(index, TraceContext | None)``; a malformed or absent
    header is ``None`` — observability must never fail a read.
    """
    index, tail = _read_prefix(body)
    return index, unpack_trace_context(tail)


def pack_epoch(rank: int, epoch: int) -> bytes:
    """Body of an ``EPOCH`` request: ``u32 rank | u64 epoch``."""
    if rank < 0 or epoch < 0:
        raise ValueError("rank and epoch must be non-negative")
    return _EPOCH_BODY.pack(rank, epoch)


def unpack_epoch(body: bytes) -> tuple[int, int]:
    """Parse an ``EPOCH`` request body into ``(rank, epoch)``."""
    if len(body) != _EPOCH_BODY.size:
        raise ProtocolError(f"EPOCH body must be {_EPOCH_BODY.size} bytes")
    rank, epoch = _EPOCH_BODY.unpack(body)
    return rank, epoch


def pack_indices(indices: np.ndarray, trace: bytes = b"") -> bytes:
    """Shard payload: ``u32 count`` then the indices as little-endian u64.

    ``trace`` appends an optional trace-context header (only meaningful
    on ``READ_BATCH`` *requests*, and only to ``trace_headers`` servers;
    shard replies never carry one).
    """
    arr = np.ascontiguousarray(np.asarray(indices, dtype="<u8"))
    if trace:
        return _COUNT.pack(arr.size) + arr.tobytes() + trace
    return _COUNT.pack(arr.size) + arr.tobytes()


def _indices_prefix(body: bytes) -> tuple[np.ndarray, bytes]:
    """Split a shard payload into ``(int64 indices, tail)``.

    The fixed part is self-delimiting: ``count`` says where the indices
    end.
    """
    if len(body) < _COUNT.size:
        raise ProtocolError("truncated shard payload")
    (count,) = _COUNT.unpack_from(body)
    end = _COUNT.size + count * 8
    if len(body) < end:
        raise ProtocolError(
            f"shard payload carries {len(body) - _COUNT.size} bytes "
            f"for {count} indices"
        )
    indices = np.frombuffer(body[_COUNT.size:end], dtype="<u8")
    return indices.astype(np.int64), body[end:]


def unpack_indices(body: bytes) -> np.ndarray:
    """Parse a bare shard payload into an ``int64`` index array."""
    indices, tail = _indices_prefix(body)
    if tail:
        raise ProtocolError(
            f"shard payload carries {len(tail)} bytes past its "
            f"{len(indices)} indices"
        )
    return indices


def unpack_indices_traced(body: bytes):
    """Parse a ``READ_BATCH`` request body, tolerating a trace tail.

    Returns ``(indices, TraceContext | None)``: any bytes after the
    indices are the optional trace-context header; malformed headers
    parse as ``None`` rather than failing the batch.
    """
    indices, tail = _indices_prefix(body)
    return indices, unpack_trace_context(tail)


def pack_manifest_shard(
    manifest_id: str, n_samples: int, indices: np.ndarray
) -> bytes:
    """Body of an ``EPOCH_MANIFEST`` reply: pinned manifest id + shard.

    ``u16 id_len | id | u64 n_samples | u32 count | count × u64`` —
    ``n_samples`` is the pinned manifest's total (the client's new view
    of the dataset size), the indices are this rank's shard of it.
    """
    mid = manifest_id.encode("ascii")
    if not mid or len(mid) > 0xFFFF:
        raise ValueError("manifest id must be 1..65535 ASCII bytes")
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    return b"".join(
        [
            _ID_LEN.pack(len(mid)),
            mid,
            _N_SAMPLES.pack(n_samples),
            pack_indices(indices),
        ]
    )


def unpack_manifest_shard(body: bytes) -> tuple[str, int, np.ndarray]:
    """Parse an ``EPOCH_MANIFEST`` reply into ``(id, n_samples, indices)``."""
    if len(body) < _ID_LEN.size:
        raise ProtocolError("truncated EPOCH_MANIFEST reply")
    (id_len,) = _ID_LEN.unpack_from(body)
    pos = _ID_LEN.size
    if id_len == 0 or len(body) < pos + id_len + _N_SAMPLES.size:
        raise ProtocolError("EPOCH_MANIFEST reply truncated in the header")
    try:
        manifest_id = body[pos:pos + id_len].decode("ascii")
    except UnicodeDecodeError:
        raise ProtocolError("EPOCH_MANIFEST manifest id is not ASCII") from None
    pos += id_len
    (n_samples,) = _N_SAMPLES.unpack_from(body, pos)
    pos += _N_SAMPLES.size
    return manifest_id, n_samples, unpack_indices(body[pos:])


def batch_reply_parts(slots: list) -> list:
    """Body of a ``READ_BATCH`` reply as a scatter-gather buffer list.

    ``slots`` is a list of ``(slot_status, payload)`` pairs — ``SLOT_OK``
    with the container blob, or ``SLOT_ERROR`` with a JSON error body.
    Payload buffers enter the output list by reference (zero-copy); pass
    the result to :func:`frame_parts`/:func:`send_frame`.
    """
    parts: list = [_COUNT.pack(len(slots))]
    for status, payload in slots:
        if status not in (SLOT_OK, SLOT_ERROR):
            raise ValueError(f"unknown slot status {status:#x}")
        parts.append(_SLOT.pack(status, len(payload)))
        parts.append(payload)
    return parts


def unpack_batch_reply(body: bytes) -> list:
    """Parse a ``READ_BATCH`` reply body into ``(status, payload)`` slots.

    Payloads are returned as ``memoryview`` slices of ``body`` — no
    per-slot copies; the views keep ``body`` alive, and the container
    decoders consume buffers directly.
    """
    if len(body) < _COUNT.size:
        raise ProtocolError("truncated READ_BATCH reply")
    (count,) = _COUNT.unpack_from(body)
    view = memoryview(body)
    slots = []
    pos = _COUNT.size
    for _ in range(count):
        if pos + _SLOT.size > len(body):
            raise ProtocolError("READ_BATCH reply truncated mid-slot")
        status, length = _SLOT.unpack_from(body, pos)
        pos += _SLOT.size
        if pos + length > len(body):
            raise ProtocolError("READ_BATCH slot payload overruns the body")
        slots.append((status, view[pos:pos + length]))
        pos += length
    if pos != len(body):
        raise ProtocolError(
            f"READ_BATCH reply carries {len(body) - pos} trailing bytes"
        )
    return slots


def pack_json(obj: dict) -> bytes:
    """Compact UTF-8 JSON body (INFO/STATS/HEALTH responses, errors)."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def unpack_json(body: bytes) -> dict:
    """Parse a JSON frame body; anything but an object is a protocol error."""
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON frame body: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("JSON frame body must be an object")
    return obj
