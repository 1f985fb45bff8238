"""Sharded record datasets (how the real CosmoFlow TFRecords are laid out).

The MLPerf CosmoFlow dataset splits its half-million samples across many
TFRecord files; training jobs assign shard subsets to workers and shuffle
at two levels (shard order, then records within a shard window).  This
module writes and reads that layout:

* :class:`ShardedWriter` — round-robins samples into ``n_shards`` record
  files named ``<prefix>-00000-of-00004.tfr``-style.
* :class:`ShardedSource` — a pipeline source over a shard set with global
  random access (shard index pre-built per file), optionally restricted to
  a worker's shard slice for distributed loading.
"""

from __future__ import annotations

from pathlib import Path

from repro.storage.tfrecord import TfRecordWriter, build_index, read_record_at

__all__ = ["ShardedWriter", "ShardedSource", "shard_name"]


def shard_name(prefix: str | Path, index: int, total: int) -> Path:
    """Canonical shard filename, e.g. ``data-00002-of-00008.tfr``."""
    if not 0 <= index < total:
        raise ValueError(f"shard {index} out of range for {total}")
    prefix = Path(prefix)
    return prefix.with_name(f"{prefix.name}-{index:05d}-of-{total:05d}.tfr")


class ShardedWriter:
    """Round-robin sample writer over ``n_shards`` record files."""

    def __init__(self, prefix: str | Path, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.prefix = Path(prefix)
        self.n_shards = n_shards
        self.prefix.parent.mkdir(parents=True, exist_ok=True)
        self._writers = [
            TfRecordWriter(shard_name(prefix, i, n_shards))
            for i in range(n_shards)
        ]
        self._next = 0
        self.n_records = 0

    def write(self, payload: bytes) -> int:
        """Append one sample; returns the shard index it landed in."""
        shard = self._next
        self._writers[shard].write(payload)
        self._next = (self._next + 1) % self.n_shards
        self.n_records += 1
        return shard

    def close(self) -> None:
        for w in self._writers:
            w.close()

    def __enter__(self) -> "ShardedWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def paths(self) -> list[Path]:
        return [shard_name(self.prefix, i, self.n_shards)
                for i in range(self.n_shards)]


class ShardedSource:
    """Random-access pipeline source over a shard set.

    ``worker``/``num_workers`` restrict the view to every
    ``num_workers``-th shard starting at ``worker`` — the standard
    distributed sharding contract (each rank sees a disjoint shard slice).
    """

    def __init__(
        self,
        prefix: str | Path,
        n_shards: int,
        worker: int = 0,
        num_workers: int = 1,
    ) -> None:
        if num_workers < 1 or not 0 <= worker < num_workers:
            raise ValueError("worker must be in [0, num_workers)")
        self._entries: list[tuple[Path, int, int]] = []
        for i in range(worker, n_shards, num_workers):
            path = shard_name(prefix, i, n_shards)
            for offset, length in build_index(path):
                self._entries.append((path, offset, length))

    def __len__(self) -> int:
        return len(self._entries)

    def read(self, index: int) -> bytes:
        # imported here: repro.pipeline.sources itself imports repro.storage
        from repro.pipeline.sources import _check_index

        path, offset, length = self._entries[
            _check_index(index, len(self._entries))
        ]
        return read_record_at(path, offset, length)
