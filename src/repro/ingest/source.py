"""``SampleSource`` views over an ingest directory.

Two readers with opposite freshness contracts:

* :class:`ManifestSource` — pinned to one immutable
  :class:`~repro.ingest.manifest.Manifest`.  Its length and every byte
  it returns are fixed by the manifest id forever: appends past the
  frozen ``end_offset`` are invisible, so an epoch read through it is
  bit-reproducible no matter how the live directory grows.  This is the
  view a training epoch pins.
* :class:`LiveIngestSource` — the growing view.  It serves every
  *committed* record (torn tails are never visible — the committed
  prefix is what the CRC scan yields) and transparently refreshes its
  index when asked for a sample past its last scan, so a
  :class:`~repro.serve.server.DataServer` wrapping it can serve indices
  that were appended after the server started.  This is the view a data
  service serves; epoch consistency is layered on top by manifest-aware
  coordination, which only hands out indices a published manifest
  covers.

Both compose unchanged with ``CachedSource`` / ``RetryingSource`` /
``TieredSource`` / ``DataLoader`` — prefix stability (see
:mod:`repro.ingest.writer`) keeps index-keyed caches correct across
growth.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.ingest.manifest import Manifest
from repro.ingest.shards import scan_shard
from repro.ingest.writer import _list_shards
from repro.pipeline.sources import _check_index

__all__ = ["ManifestSource", "LiveIngestSource"]


class _ShardReader:
    """Lock-guarded persistent file handles over a shard directory."""

    def __init__(self) -> None:
        self._fhs: dict[Path, object] = {}

    def read(self, path: Path, offset: int, length: int) -> bytes:
        # caller holds the owning source's lock
        fh = self._fhs.get(path)
        if fh is None:
            fh = open(path, "rb")
            self._fhs[path] = fh
        fh.seek(offset)
        payload = fh.read(length)
        if len(payload) < length:
            raise ValueError(
                f"truncated record payload in {path.name} at offset {offset}"
            )
        return payload

    def close(self) -> None:
        for fh in self._fhs.values():
            try:
                fh.close()
            except OSError:
                pass
        self._fhs.clear()


class ManifestSource:
    """Read the immutable sample set one manifest freezes.

    Construction validates the pin: each shard's committed records under
    the frozen ``end_offset`` must match the manifest's counts exactly,
    so a damaged or foreign directory is refused up front rather than
    yielding wrong bytes mid-epoch.
    """

    def __init__(self, root: str | Path, manifest: Manifest) -> None:
        self.root = Path(root)
        self.manifest = manifest
        self._lock = threading.Lock()
        self._reader = _ShardReader()
        #: flat (path, payload_offset, length) per global sample index
        self._index: list[tuple[Path, int, int]] = []
        for entry in manifest.shards:
            path = self.root / entry.name
            scan = scan_shard(
                path, end_offset=entry.end_offset, check_payload=False
            )
            if (
                scan.valid_end != entry.end_offset
                or scan.n_records != entry.n_samples
            ):
                raise ValueError(
                    f"shard {entry.name} does not match manifest "
                    f"{manifest.manifest_id[:12]}…: expected "
                    f"{entry.n_samples} records / {entry.end_offset} bytes, "
                    f"found {scan.n_records} / {scan.valid_end}"
                )
            self._index.extend(
                (path, offset, length) for offset, length in scan.entries
            )

    def __len__(self) -> int:
        return len(self._index)

    def read(self, index: int) -> bytes:
        path, offset, length = self._index[
            _check_index(index, len(self._index))
        ]
        with self._lock:
            return self._reader.read(path, offset, length)

    def close(self) -> None:
        with self._lock:
            self._reader.close()

    def __enter__(self) -> "ManifestSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LiveIngestSource:
    """The committed-so-far view of a live ingest directory.

    ``len()`` is the number of committed records as of the last index
    refresh; a read past that bound triggers a refresh first, so the
    source *grows on demand* while an
    :class:`~repro.ingest.writer.IngestWriter` keeps appending (same
    process or another).  Only structurally committed records (complete
    CRC-framed) ever enter the index — a torn tail is skipped until the
    missing bytes land, at which point the incremental rescan picks the
    record up.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._lock = threading.Lock()
        self._reader = _ShardReader()
        self._index: list[tuple[Path, int, int]] = []
        #: per-shard committed byte boundary the last scan reached
        self._scanned: dict[Path, int] = {}
        self.refresh()

    def refresh(self) -> int:
        """Rescan for newly committed records; return the new length."""
        with self._lock:
            return self._refresh_locked()

    def _refresh_locked(self) -> int:
        for path in _list_shards(self.root):
            start = self._scanned.get(path, 0)
            scan = scan_shard(
                path, start_offset=start, check_payload=True
            )
            # appends are tail-only and shards are numbered in append
            # order, so new records always extend the flat index
            self._index.extend(
                (path, offset, length) for offset, length in scan.entries
            )
            self._scanned[path] = scan.valid_end
        return len(self._index)

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def read(self, index: int) -> bytes:
        with self._lock:
            if index >= len(self._index):
                self._refresh_locked()
            path, offset, length = self._index[
                _check_index(index, len(self._index))
            ]
            return self._reader.read(path, offset, length)

    def close(self) -> None:
        with self._lock:
            self._reader.close()

    def __enter__(self) -> "LiveIngestSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
