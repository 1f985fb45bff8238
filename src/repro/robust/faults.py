"""Deterministic fault injection for chaos-testing the data path.

The paper's pipeline moves encoded blobs PFS → NVMe → host cache → device;
every hop can fail transiently (interconnect hiccups, throttled NVMe) or
permanently (a blob corrupted at rest).  :class:`FaultInjector` wraps any
``SampleSource`` and :class:`FaultyTier` wraps any storage ``Tier``,
injecting configurable failures from a seeded RNG so chaos runs replay
bit-for-bit — the same property the convergence experiments rely on.

Transient faults are drawn independently per *(index, attempt)*, so a
retry of the same read re-rolls the dice with fresh (but deterministic)
randomness: a wrapped :class:`~repro.robust.retry.RetryingSource` recovers
exactly the clean bytes.  Permanent corruption (``corrupt_ids``) flips the
same payload bit on every read — only quarantine can get past it.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.pipeline.sources import WrapperSource, _check_index

__all__ = ["FaultPlan", "FaultStats", "FaultInjector", "FaultyTier"]

#: fault kinds, in the order they are drawn from the RNG stream
_KINDS = ("io_error", "latency", "truncate", "bitflip")


@dataclass(frozen=True)
class FaultPlan:
    """Configuration of one chaos scenario.

    Rates are independent per-read probabilities in ``[0, 1]``; a read may
    suffer several fault kinds at once (latency spike *and* bit-flip).
    ``corrupt_ids`` lists sample identities whose blobs are permanently
    corrupted: every read of such a sample returns the same damaged bytes.
    """

    io_error_rate: float = 0.0
    truncate_rate: float = 0.0
    bitflip_rate: float = 0.0
    latency_rate: float = 0.0
    latency_s: float = 0.0
    corrupt_ids: frozenset = frozenset()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("io_error_rate", "truncate_rate", "bitflip_rate",
                     "latency_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        object.__setattr__(self, "corrupt_ids", frozenset(self.corrupt_ids))


@dataclass
class FaultStats:
    """How many faults of each kind were actually injected."""

    reads: int = 0
    injected: Counter = field(default_factory=Counter)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())


def _stable_key(key: object) -> int:
    """Map a sample identity (index or tier file name) to a stable int."""
    if isinstance(key, (int, np.integer)):
        return int(key)
    import zlib

    return zlib.crc32(str(key).encode("utf-8"))


class _FaultEngine:
    """Shared fault-drawing logic keyed by (sample identity, attempt)."""

    def __init__(self, plan: FaultPlan, sleep=time.sleep) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._sleep = sleep
        self._attempts: Counter = Counter()

    def _rng(self, key: object, attempt: int) -> np.random.Generator:
        return np.random.default_rng(
            [self.plan.seed, _stable_key(key), attempt]
        )

    def corrupt_permanently(self, key: object, blob: bytes) -> bytes:
        """Flip one payload bit, identically on every read of ``key``."""
        buf = bytearray(blob)
        # Skip the 16-byte container prefix so damage lands on the
        # checksummed region (header JSON or payload), never on the magic.
        lo = min(16, max(len(buf) - 1, 0))
        rng = np.random.default_rng([self.plan.seed, _stable_key(key)])
        pos = int(rng.integers(lo, len(buf)))
        buf[pos] ^= 1 << int(rng.integers(0, 8))
        self.stats.injected["permanent_corrupt"] += 1
        return bytes(buf)

    def pre_read(self, key: object) -> np.random.Generator:
        """Roll pre-read faults (IOError, latency). Returns the RNG so the
        post-read faults for this attempt continue the same stream."""
        attempt = self._attempts[key]
        self._attempts[key] = attempt + 1
        self.stats.reads += 1
        rng = self._rng(key, attempt)
        plan = self.plan
        if rng.random() < plan.io_error_rate:
            self.stats.injected["io_error"] += 1
            raise IOError(
                f"injected transient I/O failure reading {key!r} "
                f"(attempt {attempt})"
            )
        if rng.random() < plan.latency_rate:
            self.stats.injected["latency"] += 1
            if plan.latency_s > 0:
                self._sleep(plan.latency_s)
        return rng

    def post_read(self, key: object, blob: bytes, rng: np.random.Generator) -> bytes:
        """Damage a blob in hand: permanent corruption, else the rolled
        payload faults (truncation, bit-flip) of this attempt."""
        plan = self.plan
        if key in plan.corrupt_ids:
            return self.corrupt_permanently(key, blob)
        if rng.random() < plan.truncate_rate and len(blob) > 1:
            self.stats.injected["truncate"] += 1
            cut = int(rng.integers(1, len(blob)))
            blob = blob[:cut]
        if rng.random() < plan.bitflip_rate and len(blob) > 0:
            self.stats.injected["bitflip"] += 1
            buf = bytearray(blob)
            pos = int(rng.integers(0, len(buf)))
            buf[pos] ^= 1 << int(rng.integers(0, 8))
            blob = bytes(buf)
        return blob


class FaultInjector(WrapperSource):
    """A ``SampleSource`` decorator that injects seeded failures.

    Faults are drawn per *(index, attempt)*, never from call order, so a
    group read through ``read_batch_slots`` (one inner batched read for
    the samples that survive their pre-read roll) injects exactly the
    faults the scalar loop over the same indices would.

    Parameters
    ----------
    inner:
        The wrapped source (any index → bytes mapping with ``__len__``).
    plan:
        The fault configuration.
    sleep:
        Injection point for latency spikes; tests pass a stub to avoid
        real waiting.
    """

    _span = "fault"

    def __init__(self, inner, plan: FaultPlan, sleep=time.sleep) -> None:
        super().__init__(inner)
        self.plan = plan
        self._engine = _FaultEngine(plan, sleep)

    @property
    def stats(self) -> FaultStats:
        return self._engine.stats

    def _before(self, index: int, sp):
        # a bad index is the caller's error, not a read to roll dice for
        _check_index(index, len(self.inner))
        return None, self._engine.pre_read(index)  # never a hit

    def _after(self, index: int, blob: bytes, rng) -> bytes:
        return self._engine.post_read(index, blob, rng)


class FaultyTier:
    """A storage ``Tier`` decorator injecting failures on read or write.

    ``on="read"`` damages bytes as they leave the tier (an unreliable
    medium); ``on="write"`` damages bytes as they land (a flaky copy
    pipeline) — the latter is what staging verification must catch and
    re-stage around.  Non-wrapped attributes delegate to the inner tier,
    so a ``FaultyTier`` drops in wherever a ``Tier`` is accepted.
    """

    def __init__(self, inner, plan: FaultPlan, on: str = "read",
                 sleep=time.sleep) -> None:
        if on not in ("read", "write"):
            raise ValueError(f"on must be 'read' or 'write', got {on!r}")
        self.inner = inner
        self.plan = plan
        self.on = on
        self._engine = _FaultEngine(plan, sleep)

    @property
    def stats(self) -> FaultStats:
        return self._engine.stats

    def __getattr__(self, name):  # spec, path, has_room, used_bytes, …
        return getattr(self.inner, name)

    def read(self, name: str) -> bytes:
        if self.on != "read":
            return self.inner.read(name)
        rng = self._engine.pre_read(name)
        return self._engine.post_read(name, self.inner.read(name), rng)

    def write(self, name: str, data: bytes):
        if self.on != "write":
            return self.inner.write(name, data)
        rng = self._engine.pre_read(name)
        return self.inner.write(name, self._engine.post_read(name, data, rng))
