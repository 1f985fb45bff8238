"""Sample sources: where encoded blobs come from.

A source maps a sample index to its container bytes.  Implementations wrap
in-memory lists (tests), storage tiers (staged/unstaged experiments),
record files (CosmoFlow's TFRecord-style storage), and an LRU-caching
decorator that realizes Figure 1's "cache the training set in the nearest
memory level that fits" behaviour.

One read contract (see :class:`SampleSource`): ``__len__``, ``read`` and
one optional batch method, ``read_batch_slots``.  The module functions
:func:`read_batch_slots` and :func:`read_batch` are how callers read a
group from any source; :class:`WrapperSource` is how a per-sample
decorator gets both entry points from one statement of its behaviour.

All sources validate the index: out-of-range *and negative* indices raise
``IndexError`` (in a group: fail their own slot) instead of silently
wrapping around Python-style — a shuffled epoch order must never alias
sample ``-1`` onto the last sample.

Fault-tolerance decorators (fault injection, retrying reads) live in
:mod:`repro.robust`, and the networked client of a data service
(:class:`~repro.serve.client.RemoteSource`) lives in :mod:`repro.serve`;
all implement the same ``SampleSource`` protocol and compose freely with
the sources here.
"""

from __future__ import annotations

import threading
from typing import Protocol, runtime_checkable

from repro.core.encoding.container import verify_sample
from repro.observe import trace as observe
from repro.storage.cache import SampleCache
from repro.storage.filesystem import Tier
from repro.storage.tfrecord import build_index

__all__ = [
    "SampleSource",
    "WrapperSource",
    "ListSource",
    "TierSource",
    "TfRecordSource",
    "CachedSource",
    "read_batch",
    "read_batch_slots",
]


@runtime_checkable
class SampleSource(Protocol):
    """Index → container bytes.

    Required: ``__len__`` and ``read(index)``, which raises ``IndexError``
    for an out-of-range or negative index.  Optional, the *batch plane*
    (docs/batching.md): ``read_batch_slots(indices) -> list[bytes |
    Exception]`` — one entry per requested index, in request order, each
    the blob or the exception ``read`` would have raised for it, so one
    bad sample (corrupt, missing, out of range) cannot sink its
    batch-mates.  Only a failure of the whole exchange (a broken
    connection, a shed request) raises.

    Callers go through the module-level :func:`read_batch_slots` (the
    method when present, else a per-index loop) or its strict form
    :func:`read_batch` — every source is batch-readable, the method only
    makes it faster.
    """

    def __len__(self) -> int: ...

    def read(self, index: int) -> bytes: ...


def read_batch_slots(source: "SampleSource", indices) -> list:
    """Per-slot batched read: ``blob`` or the ``Exception`` it raised."""
    method = getattr(source, "read_batch_slots", None)
    if method is not None:
        return method(indices)
    slots: list = []
    for i in indices:
        try:
            slots.append(source.read(int(i)))
        except Exception as exc:  # noqa: BLE001 — slot-isolated by design
            slots.append(exc)
    return slots


def read_batch(source: "SampleSource", indices) -> list[bytes]:
    """Strict batched read: every blob, or the first failed slot's error."""
    slots = read_batch_slots(source, indices)
    for slot in slots:
        if isinstance(slot, Exception):
            raise slot
    return slots


def _check_index(index: int, n: int, what: str = "sample") -> int:
    if not 0 <= index < n:
        raise IndexError(f"{what} index {index} out of range [0, {n})")
    return index


def _checked_slots(indices: list[int], n: int) -> tuple[list, list[int]]:
    """Pre-fail the bad indices of a group, each in its own slot.

    Returns ``(slots, todo)``: ``slots`` holds the ``IndexError`` of every
    out-of-range index and ``None`` elsewhere; ``todo`` lists the
    positions still to be fetched.
    """
    slots: list = []
    todo: list[int] = []
    for pos, index in enumerate(indices):
        try:
            _check_index(index, n)
        except IndexError as exc:
            slots.append(exc)
        else:
            slots.append(None)
            todo.append(pos)
    return slots, todo


class WrapperSource:
    """Base of the decorators that act on each sample of an inner source.

    A subclass states its per-sample behaviour once, as two hooks, and
    inherits both entry points — so scalar ``read`` is a group of one by
    construction and every wrapper is batch-native:

    * ``_before(index, sp) -> (blob | None, state)`` runs ahead of the
      inner read: return the blob to serve a *hit* without touching
      ``inner``, raise to *fail* the sample, or return ``None`` (a *miss*)
      with whatever ``state`` the after-hook needs.  ``sp`` is the span of
      a scalar read (inert in a group), for per-sample annotations;
    * ``_after(index, blob, state) -> bytes`` receives the inner blob of a
      miss: transform, verify (raise to fail the sample) or admit it.

    ``read`` makes exactly one ``inner.read`` per miss;
    ``read_batch_slots`` serves hits and hook failures in their slots and
    fetches all misses in one inner batched read.  ``_span`` names the
    span opened around either call (``index=`` for a scalar read; ``n=``,
    ``hits=``, ``misses=`` for a group).
    """

    _span: str

    def __init__(self, inner: SampleSource) -> None:
        self.inner = inner

    def __len__(self) -> int:
        return len(self.inner)

    def read(self, index: int) -> bytes:
        with observe.span(self._span, index=index) as sp:
            blob, state = self._before(index, sp)
            if blob is None:
                blob = self._after(index, self.inner.read(index), state)
        return blob

    def read_batch_slots(self, indices) -> list:
        indices = [int(i) for i in indices]
        with observe.span(self._span, n=len(indices)) as sp:
            slots: list = []
            misses: list[tuple[int, object]] = []  # (position, hook state)
            for pos, index in enumerate(indices):
                try:
                    blob, state = self._before(index, observe.NOOP_SPAN)
                except Exception as exc:  # noqa: BLE001 — slot-isolated
                    blob = exc
                else:
                    if blob is None:
                        misses.append((pos, state))
                slots.append(blob)
            failed = sum(isinstance(slot, Exception) for slot in slots)
            sp.annotate(hits=len(indices) - len(misses) - failed,
                        misses=len(misses))
            if misses:
                fetched = read_batch_slots(
                    self.inner, [indices[pos] for pos, _ in misses]
                )
                for (pos, state), blob in zip(misses, fetched):
                    if not isinstance(blob, Exception):
                        try:
                            blob = self._after(indices[pos], blob, state)
                        except Exception as exc:  # noqa: BLE001 — slot-isolated
                            blob = exc
                    slots[pos] = blob
        return slots


class ListSource:
    """In-memory blobs — the simplest source, used throughout the tests."""

    def __init__(self, blobs: list[bytes]) -> None:
        self._blobs = list(blobs)

    def __len__(self) -> int:
        return len(self._blobs)

    def read(self, index: int) -> bytes:
        return self._blobs[_check_index(index, len(self._blobs))]


class TierSource:
    """One file per sample on a storage tier (HDF5-per-sample layout)."""

    def __init__(self, tier: Tier, names: list[str]) -> None:
        self.tier = tier
        self.names = list(names)

    def __len__(self) -> int:
        return len(self.names)

    def read(self, index: int) -> bytes:
        return self.tier.read(self.names[_check_index(index, len(self.names))])


class TfRecordSource:
    """Random-access reader over an uncompressed record file.

    Keeps one persistent file handle open across reads (an epoch of
    shuffled random access must not pay an ``open``/``close`` syscall pair
    per sample); seek+read runs under a lock so the source can be shared
    by loader worker threads or server connection handlers.  The handle is
    opened lazily and re-opened transparently after :meth:`close`.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._index = build_index(path)
        self._fh = None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._index)

    def _read_locked(self, index: int) -> bytes:
        offset, length = self._index[
            _check_index(index, len(self._index), "record")
        ]
        if self._fh is None:
            self._fh = open(self.path, "rb")
        self._fh.seek(offset)
        payload = self._fh.read(length)
        if len(payload) < length:
            raise ValueError("truncated record payload")
        return payload

    def read(self, index: int) -> bytes:
        with self._lock:
            return self._read_locked(index)

    def read_batch_slots(self, indices) -> list:
        """All records under one lock acquisition (one seek pass)."""
        slots: list = []
        with self._lock:
            for i in indices:
                try:
                    slots.append(self._read_locked(int(i)))
                except Exception as exc:  # noqa: BLE001 — slot-isolated
                    slots.append(exc)
        return slots

    def close(self) -> None:
        """Release the file handle (reads after this re-open it)."""
        with self._lock:
            fh, self._fh = self._fh, None
            if fh is not None:
                fh.close()

    def __enter__(self) -> "TfRecordSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CachedSource(WrapperSource):
    """LRU host-memory cache in front of any source.

    Smaller encoded samples ⇒ more of them fit ⇒ higher hit rate — the
    compression-enables-caching effect the paper's optimization relies on.

    With ``verify=True`` every blob coming from the inner source is
    checksum-verified *before* it is cached: a corrupt blob fails its own
    read (its own slot of a group) and is never stored, so one bad read
    can't poison every later epoch from the cache.  A group is served
    hits-from-cache, misses in one inner batched read.
    """

    _span = "cache"

    def __init__(
        self, inner: SampleSource, cache: SampleCache, verify: bool = False
    ) -> None:
        super().__init__(inner)
        self.cache = cache
        self.verify = verify

    def _before(self, index: int, sp):
        blob = self.cache.get(index)
        sp.annotate(hit=blob is not None)
        return blob, None

    def _after(self, index: int, blob: bytes, state) -> bytes:
        if self.verify:
            verify_sample(blob, sample_id=index)
        self.cache.put(index, blob)
        return blob
