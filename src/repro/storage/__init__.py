"""Storage substrate: tiers, containers, staging, host-memory cache."""

from repro.storage import filesystem, sharding, staging, tfrecord
from repro.storage.cache import CacheStats, SampleCache
from repro.storage.filesystem import Tier, TierSpec, read_time, write_time
from repro.storage.sharding import ShardedSource, ShardedWriter
from repro.storage.staging import StagingReport, stage_dataset

__all__ = [
    "filesystem",
    "sharding",
    "staging",
    "tfrecord",
    "ShardedSource",
    "ShardedWriter",
    "CacheStats",
    "SampleCache",
    "Tier",
    "TierSpec",
    "read_time",
    "write_time",
    "StagingReport",
    "stage_dataset",
]
