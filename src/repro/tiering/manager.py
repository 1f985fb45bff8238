"""The tier manager: placement, eviction and migration across a hierarchy.

Figure 1 of the paper tracks one sample's migration path — shared parallel
file system → node NVMe → host memory — and the repo so far modeled it
with a single flat cache plus a one-shot stage-in copy.  This module is
the subsystem that *manages* that hierarchy over time:

* :class:`MemoryTier` — a host-RAM tier with the same interface as the
  directory-backed :class:`~repro.storage.filesystem.Tier` (spec, read,
  write, delete, capacity), so a hierarchy can mix in-memory and on-disk
  levels freely.
* :class:`TierLevel` — one level of the hierarchy: a tier, a byte
  *budget* (the slice of the tier this dataset may use; a 512 GB RAM
  tier typically lends the sample store far less), and a pluggable
  eviction policy (:mod:`repro.tiering.policy`).
* :class:`TierManager` — owns the ordered levels (fastest first), serves
  reads from the fastest level holding the sample, admits misses from the
  backing store, and plans/applies *migrations*: promotions of hot
  samples toward faster levels, demotions and evictions of cold ones,
  driven by per-epoch access counts.  Every byte entering a level can be
  checksum-verified first (``verify=True`` — the robustness path of
  :func:`~repro.core.encoding.container.verify_sample`), so one corrupt
  copy can never poison every later epoch from a fast tier.

Every read and migration also *charges modeled time* from the level's
:class:`~repro.storage.filesystem.TierSpec` (the same bandwidth numbers
the cost model and the DES use), accumulated in the stats registry as
``tiers.<level>.read_s`` — this is how experiments and
``benchmarks/bench_tiering.py`` measure the simulated-bandwidth speedup
of a promoted working set without needing the actual hardware.

Thread-safety: all metadata (placement maps, accounting, policies, stats)
is guarded by one internal lock, so loader worker threads and the
background :class:`~repro.tiering.worker.MigrationWorker` can share a
manager.  Blob I/O on the small per-sample files of functional runs is
performed under the same lock — crude but correct; the modeled seconds,
not the wall clock of the test-sized files, are the performance signal.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field

from repro.core.encoding.container import CorruptSampleError, verify_sample
from repro.observe import trace as observe
from repro.storage.filesystem import TierSpec, read_time, write_time
from repro.tiering.policy import EvictionPolicy, LruPolicy
from repro.tune.stats import StatsRegistry

__all__ = ["MemoryTier", "TierLevel", "Move", "MigrationPlan", "TierManager"]


class MemoryTier:
    """A host-RAM storage tier: ``Tier``'s interface over a dict.

    ``spec`` still matters — its bandwidth/latency are what reads from
    this tier cost in modeled time, and its ``capacity_bytes`` bounds
    writes exactly like the directory-backed tier.
    """

    def __init__(self, spec: TierSpec) -> None:
        self.spec = spec
        self._blobs: dict[str, bytes] = {}
        self._used_bytes = 0

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def rescan(self) -> int:
        self._used_bytes = sum(len(b) for b in self._blobs.values())
        return self._used_bytes

    def has_room(self, nbytes: int) -> bool:
        return self._used_bytes + nbytes <= self.spec.capacity_bytes

    def exists(self, name: str) -> bool:
        return name in self._blobs

    def write(self, name: str, data: bytes) -> str:
        old = len(self._blobs.get(name, b""))
        if self._used_bytes - old + len(data) > self.spec.capacity_bytes:
            raise OSError(
                f"tier {self.spec.name!r} out of capacity "
                f"({self._used_bytes} + {len(data)} > "
                f"{self.spec.capacity_bytes})"
            )
        self._blobs[name] = data
        self._used_bytes += len(data) - old
        return name

    def delete(self, name: str) -> bool:
        blob = self._blobs.pop(name, None)
        if blob is None:
            return False
        self._used_bytes -= len(blob)
        return True

    def read(self, name: str) -> bytes:
        try:
            return self._blobs[name]
        except KeyError:
            raise FileNotFoundError(f"no blob {name!r} in memory tier")


class TierLevel:
    """One level of the hierarchy: a tier, a byte budget, a policy."""

    def __init__(
        self,
        tier,
        budget_bytes: float,
        policy: EvictionPolicy | None = None,
        name: str | None = None,
    ) -> None:
        if budget_bytes < 0:
            raise ValueError("budget must be non-negative")
        self.tier = tier
        self.budget_bytes = float(budget_bytes)
        self.policy = policy if policy is not None else LruPolicy()
        self.name = name if name is not None else tier.spec.name
        self.entries: dict[object, int] = {}  # key -> stored bytes
        self.used_bytes = 0

    @property
    def spec(self) -> TierSpec:
        return self.tier.spec

    def _fname(self, key: object) -> str:
        return f"{key}.blob"

    def has(self, key: object) -> bool:
        return key in self.entries

    def load(self, key: object) -> bytes:
        return self.tier.read(self._fname(key))

    def store(self, key: object, blob: bytes) -> None:
        old = self.entries.get(key, 0)
        self.tier.write(self._fname(key), blob)
        self.entries[key] = len(blob)
        self.used_bytes += len(blob) - old
        self.policy.on_admit(key, len(blob))

    def drop(self, key: object) -> int:
        """Remove ``key`` from this level; returns the bytes reclaimed."""
        size = self.entries.pop(key, 0)
        if size:
            self.tier.delete(self._fname(key))
            self.used_bytes -= size
        self.policy.on_remove(key)
        return size


#: migration kinds, also the counter suffixes in the stats registry
PROMOTE, DEMOTE, EVICT = "promote", "demote", "evict"


@dataclass(frozen=True)
class Move:
    """One planned migration of one sample."""

    key: object
    kind: str  # promote | demote | evict
    src: str  # level name, or "backing"
    dst: str | None  # level name, or None for evictions
    nbytes: int

    def to_json(self) -> dict:
        return {
            "key": self.key if isinstance(self.key, (int, str)) else str(self.key),
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "bytes": self.nbytes,
        }


@dataclass
class MigrationPlan:
    """The moves one migration cycle intends to make."""

    moves: list[Move] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.moves)

    def counts(self) -> dict[str, int]:
        c = Counter(m.kind for m in self.moves)
        return {k: c.get(k, 0) for k in (PROMOTE, DEMOTE, EVICT)}

    def to_json(self) -> dict:
        return {"counts": self.counts(),
                "moves": [m.to_json() for m in self.moves]}


class TierManager:
    """Policy-driven placement across an ordered tier hierarchy.

    Parameters
    ----------
    levels:
        Managed levels, *fastest first* (e.g. RAM, then NVMe).  The
        authoritative copy of every sample stays in ``backing``; levels
        only ever hold disposable replicas.
    backing:
        Where misses are served from — anything with ``read(key)``
        (a :class:`~repro.pipeline.sources.SampleSource`, another tier's
        reader, a :class:`~repro.serve.client.RemoteSource`...).  May be
        ``None`` when the manager is driven purely via :meth:`lookup` /
        :meth:`admit`.
    backing_spec:
        Optional :class:`TierSpec` of the backing store (the PFS row of a
        :class:`~repro.simulate.machine.MachineSpec`); when given, miss
        reads charge its modeled time, which is what makes tier-on vs
        tier-off comparisons meaningful.
    verify:
        Checksum-verify every blob before it is admitted to any level —
        on a miss from backing and again on every migration copy.  A
        corrupt backing read raises :class:`CorruptSampleError` (retryable
        by an outer :class:`~repro.robust.retry.RetryingSource`); a blob
        that corrupted *inside* a level is dropped from that level and the
        move skipped, counted as ``tiers.verify_failures``.
    stats:
        Shared :class:`~repro.tune.stats.StatsRegistry`; pass the
        loader's so ``repro stats`` / the adaptive controller see the
        tier counters alongside the pipeline's.
    admit_level:
        Index of the level that absorbs fresh misses (default ``-1``, the
        slowest managed level — samples *earn* their way up through the
        promotion worker rather than thrashing the fastest tier on first
        touch).
    """

    def __init__(
        self,
        levels: list[TierLevel],
        *,
        backing=None,
        backing_spec: TierSpec | None = None,
        verify: bool = False,
        stats: StatsRegistry | None = None,
        admit_level: int = -1,
    ) -> None:
        if not levels:
            raise ValueError("need at least one managed level")
        names = [lv.name for lv in levels]
        if len(set(names)) != len(names):
            raise ValueError(f"level names must be unique, got {names}")
        self.levels = list(levels)
        self.backing = backing
        self.backing_spec = backing_spec
        self.verify = verify
        self.stats = stats if stats is not None else StatsRegistry()
        self.admit_level = range(len(levels))[admit_level]
        self._lock = threading.RLock()
        self._sizes: dict[object, int] = {}  # last seen blob size per key
        self._window: Counter = Counter()  # accesses since last migration
        self._total: Counter = Counter()  # accesses across the run
        self._residency: dict[object, int] = {}  # key -> level index

    # -- read path ---------------------------------------------------------

    def lookup(self, key: object, sp=observe.NOOP_SPAN) -> bytes | None:
        """Serve ``key`` from the fastest level holding it; None on miss.

        Records the access (for promotion ranking), the per-level hit
        counters, and the modeled read time of the serving level.  ``sp``
        (the caller's ``tier`` span, when it traces) is renamed to the
        outcome: ``tier.hit`` with the serving level, or ``tier.miss``.
        """
        with self._lock:
            self._window[key] += 1
            self._total[key] += 1
            idx = self._residency.get(key)
            if idx is None:
                self.stats.add("tiers.misses")
                sp.name = "tier.miss"
                return None
            level = self.levels[idx]
            blob = level.load(key)
            level.policy.on_access(key)
            self.stats.add(f"tiers.{level.name}.hits", float(len(blob)))
            self.stats.add(
                f"tiers.{level.name}.read_s", read_time(level.spec, len(blob))
            )
            sp.name = "tier.hit"
            sp.annotate(level=level.name)
            return blob

    def _charge_backing_read(self, blob: bytes) -> None:
        with self._lock:
            self.stats.add("tiers.backing.reads", float(len(blob)))
            if self.backing_spec is not None:
                self.stats.add(
                    "tiers.backing.read_s",
                    read_time(self.backing_spec, len(blob)),
                )

    def fill(self, key: object, blob: bytes) -> bytes:
        """The miss path, given the blob just read from backing.

        Charges the backing tier's modeled read time, verifies (when
        configured — a corrupt blob raises before any admit) and admits
        the blob so later epochs hit.
        """
        self._charge_backing_read(blob)
        if self.verify:
            verify_sample(blob, sample_id=key)
        with observe.span("tier.admit", key=key, bytes=len(blob)):
            self.admit(key, blob)
        return blob

    def read(self, key: object) -> bytes:
        """Full read path: managed levels, then the backing store.

        What :class:`~repro.tiering.source.TieredSource` does for a source,
        for callers holding only the manager: :meth:`lookup`, else
        ``backing.read`` and :meth:`fill`.
        """
        with observe.span("tier", key=key) as sp:
            blob = self.lookup(key, sp)
            if blob is None:
                if self.backing is None:
                    raise KeyError(f"sample {key!r} resident in no tier and no "
                                   f"backing store is attached")
                blob = self.fill(key, self.backing.read(key))
        return blob

    # -- placement ---------------------------------------------------------

    def admit(self, key: object, blob: bytes, level_idx: int | None = None) -> bool:
        """Place a blob into a level, evicting per policy to make room.

        Without an explicit ``level_idx`` the blob lands in the admission
        level — or, when its budget cannot hold the blob at all (e.g. a
        rebalance shrank it), the nearest *faster* level that can.
        Oversize blobs no level's budget fits are rejected up front —
        counted as ``tiers.rejected_oversize`` — without displacing
        anything.
        """
        size = len(blob)
        with self._lock:
            self._sizes[key] = size
            if level_idx is not None:
                idx = level_idx
            else:
                idx = next(
                    (i for i in range(self.admit_level, -1, -1)
                     if size <= self.levels[i].budget_bytes),
                    self.admit_level,
                )
            level = self.levels[idx]
            if size > level.budget_bytes:
                self.stats.add("tiers.rejected_oversize", float(size))
                return False
            if self._residency.get(key) == idx:
                level.store(key, blob)  # refresh in place
                self._make_room(level, 0)  # a grown blob may overflow
                return level.has(key)
            self._drop_resident(key)
            self._make_room(level, size)
            level.store(key, blob)
            self._residency[key] = idx
            self.stats.add(
                f"tiers.{level.name}.write_s", write_time(level.spec, size)
            )
            return True

    def _drop_resident(self, key: object) -> None:
        idx = self._residency.pop(key, None)
        if idx is not None:
            self.levels[idx].drop(key)

    def _make_room(self, level: TierLevel, incoming: int) -> None:
        while level.used_bytes + incoming > level.budget_bytes and level.entries:
            victim = level.policy.victim()
            if victim is None:  # policy lost track; fall back to any entry
                victim = next(iter(level.entries))
            freed = level.drop(victim)
            self._residency.pop(victim, None)
            self.stats.add("tiers.evicted", float(freed))

    def invalidate(self, key: object) -> bool:
        """Drop a sample from whatever level holds it (bad blob downstream)."""
        with self._lock:
            resident = key in self._residency
            self._drop_resident(key)
            return resident

    # -- migration ---------------------------------------------------------

    def plan_migrations(self, max_moves: int | None = None) -> MigrationPlan:
        """Decide which samples move where, from the access window.

        Keys are ranked hottest-first (window accesses, then lifetime
        accesses, then key order for determinism) and greedily assigned
        to the fastest level with budget left; residency differing from
        the assignment becomes a promote/demote/evict move.  Samples never
        observed (no recorded size) cannot be planned.
        """
        with self._lock:
            ranked = sorted(
                self._sizes,
                key=lambda k: (
                    -self._window.get(k, 0),
                    -self._total.get(k, 0),
                    str(k),
                ),
            )
            remaining = [lv.budget_bytes for lv in self.levels]
            assigned: dict[object, int | None] = {}
            for key in ranked:
                size = self._sizes[key]
                target: int | None = None
                for i, room in enumerate(remaining):
                    if size <= room:
                        target = i
                        remaining[i] -= size
                        break
                assigned[key] = target

            moves: list[Move] = []
            for key in ranked:
                cur = self._residency.get(key)
                dst = assigned[key]
                size = self._sizes[key]
                if dst == cur:
                    continue
                if dst is None:
                    moves.append(Move(key, EVICT, self.levels[cur].name,
                                      None, size))
                elif cur is None:
                    if self.backing is None:
                        continue  # nothing to promote from
                    moves.append(Move(key, PROMOTE, "backing",
                                      self.levels[dst].name, size))
                elif dst < cur:
                    moves.append(Move(key, PROMOTE, self.levels[cur].name,
                                      self.levels[dst].name, size))
                else:
                    moves.append(Move(key, DEMOTE, self.levels[cur].name,
                                      self.levels[dst].name, size))
            # evictions first (free room), then promotions, then demotions
            order = {EVICT: 0, PROMOTE: 1, DEMOTE: 2}
            moves.sort(key=lambda m: order[m.kind])
            if max_moves is not None:
                moves = moves[:max_moves]
            return MigrationPlan(moves)

    def _level_by_name(self, name: str) -> int:
        for i, lv in enumerate(self.levels):
            if lv.name == name:
                return i
        raise KeyError(name)

    def apply(self, plan: MigrationPlan) -> dict[str, int]:
        """Execute a plan move by move, verify-before-admit on every copy.

        Each move takes the lock independently, so concurrent readers
        interleave with a long migration instead of stalling behind it.
        Returns the counts of what actually happened (a move whose sample
        vanished or failed verification is skipped, not retried).
        """
        summary = Counter()
        for move in plan.moves:
            with self._lock:
                if move.kind == EVICT:
                    if self._residency.get(key := move.key) is not None:
                        freed = self.levels[self._residency[key]].drop(key)
                        self._residency.pop(key, None)
                        self.stats.add("tiers.evicted", float(freed))
                        summary[EVICT] += 1
                    continue
                key = move.key
                dst_idx = self._level_by_name(move.dst)
                try:
                    if move.src == "backing":
                        if self._residency.get(key) is not None:
                            continue  # someone admitted it meanwhile
                        blob = self.backing.read(key)
                        self._charge_backing_read(blob)
                    else:
                        src_idx = self._level_by_name(move.src)
                        if self._residency.get(key) != src_idx:
                            continue  # moved/evicted since planning
                        blob = self.levels[src_idx].load(key)
                        self.stats.add(
                            f"tiers.{move.src}.read_s",
                            read_time(self.levels[src_idx].spec, len(blob)),
                        )
                    if self.verify:
                        verify_sample(blob, sample_id=key)
                except CorruptSampleError:
                    # the copy in hand is damaged: never admit it upward;
                    # drop the managed replica so the next read refetches
                    # the authoritative bytes from backing
                    self.invalidate(key)
                    self.stats.add("tiers.verify_failures")
                    summary["skipped_corrupt"] += 1
                    continue
                except (OSError, KeyError):
                    summary["skipped_missing"] += 1
                    continue
                if self.admit(key, blob, level_idx=dst_idx):
                    counter = ("tiers.promoted" if move.kind == PROMOTE
                               else "tiers.demoted")
                    self.stats.add(counter, float(len(blob)))
                    summary[move.kind] += 1
        return dict(summary)

    def run_migration(self, max_moves: int | None = None) -> dict[str, int]:
        """One migration cycle: plan from the access window, then apply."""
        return self.apply(self.plan_migrations(max_moves))

    def end_epoch(self, max_moves: int | None = None) -> dict[str, int]:
        """Between-epochs hook: migrate, then start a fresh access window."""
        summary = self.run_migration(max_moves)
        with self._lock:
            self._window.clear()
        return summary

    # -- capacity re-splitting --------------------------------------------

    def rebalance(self, min_improvement: float = 0.02) -> str | None:
        """Re-split the total managed budget against the observed working set.

        The working set is the distinct bytes touched since the last
        migration (falling back to all known samples before the first
        window completes).  Budgets are re-dealt fastest-first — each
        level takes what the working set still needs, bounded by its
        tier's physical capacity — and the new split is kept only when
        the cost model (:func:`repro.tune.costmodel.expected_read_seconds`
        over the per-level fill fractions) predicts at least
        ``min_improvement`` relative gain in expected read time.  Returns
        a description of the change, or None when the split stands.
        """
        from repro.tune.costmodel import expected_read_seconds

        with self._lock:
            keys = [k for k in self._window if k in self._sizes] or list(
                self._sizes
            )
            if not keys:
                return None
            working_set = float(sum(self._sizes[k] for k in keys))
            avg = working_set / len(keys)
            total = sum(lv.budget_bytes for lv in self.levels)

            def fractions(budgets: list[float]) -> list[float]:
                fracs, left = [], working_set
                for b in budgets:
                    take = min(b, left)
                    fracs.append(take / working_set)
                    left -= take
                fracs.append(left / working_set)  # backing remainder
                return fracs

            specs = [lv.spec for lv in self.levels]
            specs.append(self.backing_spec or specs[-1])
            current = [lv.budget_bytes for lv in self.levels]
            proposed, left = [], total
            for lv in self.levels:
                want = min(left, working_set, lv.spec.capacity_bytes)
                proposed.append(want)
                left -= want
            if left > 0:  # park surplus budget on the slowest level
                proposed[-1] += left

            t_cur = expected_read_seconds(specs, fractions(current), avg)
            t_new = expected_read_seconds(specs, fractions(proposed), avg)
            if t_cur <= 0 or (t_cur - t_new) / t_cur < min_improvement:
                return None
            for lv, budget in zip(self.levels, proposed):
                lv.budget_bytes = budget
                self._shrink_to_budget(lv)
            self.stats.add("tiers.rebalanced")

            def fmt(b: float) -> str:
                return f"{b / 1e6:.1f}MB" if b >= 1e5 else f"{b:.0f}B"

            split = ", ".join(
                f"{lv.name}={fmt(lv.budget_bytes)}" for lv in self.levels
            )
            return (f"{split} (expected read "
                    f"{t_cur * 1e3:.2f} -> {t_new * 1e3:.2f} ms/sample)")

    def _shrink_to_budget(self, level: TierLevel) -> None:
        while level.used_bytes > level.budget_bytes and level.entries:
            victim = level.policy.victim() or next(iter(level.entries))
            freed = level.drop(victim)
            self._residency.pop(victim, None)
            self.stats.add("tiers.evicted", float(freed))

    # -- reporting ---------------------------------------------------------

    def hit_rates(self) -> dict[str, float]:
        """Per-level share of all lookups, plus the overall managed rate."""
        with self._lock:
            snap = self.stats.snapshot()
            misses = snap.get("tiers.misses", (0, 0.0))[0]
            per = {
                lv.name: snap.get(f"tiers.{lv.name}.hits", (0, 0.0))[0]
                for lv in self.levels
            }
            total = misses + sum(per.values())
            if total == 0:
                return {**{n: 0.0 for n in per}, "overall": 0.0}
            rates = {n: h / total for n, h in per.items()}
            rates["overall"] = sum(per.values()) / total
            return rates

    def modeled_read_seconds(self) -> float:
        """Total modeled time of every read served so far (all tiers)."""
        with self._lock:
            snap = self.stats.snapshot()
            names = [lv.name for lv in self.levels] + ["backing"]
            return sum(
                snap.get(f"tiers.{n}.read_s", (0, 0.0))[1] for n in names
            )

    def status(self) -> dict:
        """Machine-readable hierarchy state (the ``repro tiers`` payload)."""
        with self._lock:
            snap = self.stats.snapshot()
            rates = self.hit_rates()

            def stat(name: str) -> tuple[int, float]:
                return snap.get(name, (0, 0.0))

            levels = []
            for lv in self.levels:
                hits, hit_bytes = stat(f"tiers.{lv.name}.hits")
                levels.append({
                    "name": lv.name,
                    "policy": getattr(lv.policy, "name",
                                      type(lv.policy).__name__),
                    "budget_bytes": lv.budget_bytes,
                    "used_bytes": lv.used_bytes,
                    "entries": len(lv.entries),
                    "hits": hits,
                    "hit_bytes": hit_bytes,
                    "hit_rate": rates[lv.name],
                    "modeled_read_s": stat(f"tiers.{lv.name}.read_s")[1],
                })
            return {
                "levels": levels,
                "hit_rate": rates["overall"],
                "misses": stat("tiers.misses")[0],
                "backing_reads": stat("tiers.backing.reads")[0],
                "promotions": stat("tiers.promoted")[0],
                "promoted_bytes": stat("tiers.promoted")[1],
                "demotions": stat("tiers.demoted")[0],
                "evictions": stat("tiers.evicted")[0],
                "evicted_bytes": stat("tiers.evicted")[1],
                "rejected_oversize": stat("tiers.rejected_oversize")[0],
                "verify_failures": stat("tiers.verify_failures")[0],
                "rebalances": stat("tiers.rebalanced")[0],
                "modeled_read_s": self.modeled_read_seconds(),
            }
