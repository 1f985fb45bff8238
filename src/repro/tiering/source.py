"""``TieredSource``: the hierarchy behind the ``SampleSource`` protocol.

The whole point of the tier manager is that nothing above it changes: a
:class:`TieredSource` wraps any inner source (a
:class:`~repro.pipeline.sources.TierSource` on the PFS, a
:class:`~repro.storage.sharding.ShardedSource`, a networked
:class:`~repro.serve.client.RemoteSource`...) and is itself a
``SampleSource``, so it composes unchanged with
:class:`~repro.robust.retry.RetryingSource`,
:class:`~repro.robust.faults.FaultInjector`, a
:class:`~repro.serve.server.DataServer`, and the
:class:`~repro.pipeline.loader.DataLoader` — the same decorator chain as
every other source in the repo.

Bit-identy guarantee: a ``TieredSource`` returns exactly the bytes the
inner source holds — levels store verbatim replicas, migrations copy
verbatim — so an epoch through the hierarchy is bit-identical to an epoch
straight off the inner source (the ``tiering`` experiment asserts this
for both codecs).
"""

from __future__ import annotations

from repro.pipeline.sources import SampleSource, WrapperSource
from repro.tiering.manager import TierManager

__all__ = ["TieredSource"]


class TieredSource(WrapperSource):
    """Serve samples through a :class:`TierManager` hierarchy.

    The manager's backing store is wired to ``inner`` (unless the caller
    attached one already), so misses stream from the inner source and hot
    samples migrate toward the fast tiers between epochs.  Resident
    samples are served from their level (:meth:`TierManager.lookup`); the
    non-resident ones of a group come from ``inner`` in one batched read
    and are verified and admitted one by one (:meth:`TierManager.fill`) —
    a corrupt one fails its own slot and is never admitted.

    Call :meth:`end_epoch` between epochs — or hand the manager to a
    :class:`~repro.tiering.worker.MigrationWorker` to do it in the
    background — so the access pattern of the finished epoch drives the
    next round of promotions.
    """

    _span = "tier"

    def __init__(self, inner: SampleSource, manager: TierManager) -> None:
        super().__init__(inner)
        self.manager = manager
        if manager.backing is None:
            manager.backing = inner

    def repoint(self, inner: SampleSource) -> None:
        """Swap the inner source without dropping tier residency.

        The online-ingestion hookup: between epochs a trainer re-pins to
        a newer snapshot manifest (a *longer* view of the same
        append-only sample sequence — global indices are
        prefix-stable), so the hierarchy's cached keys stay valid and
        only the miss path needs to see the new source.  New samples
        enter the observe/migrate cycle through ordinary miss-admits.
        """
        self.inner = inner
        self.manager.backing = inner

    def _before(self, index: int, sp):
        return self.manager.lookup(index, sp), None

    def _after(self, index: int, blob: bytes, state) -> bytes:
        return self.manager.fill(index, blob)

    def end_epoch(self, max_moves: int | None = None) -> dict[str, int]:
        """Run one migration cycle and reset the epoch access window."""
        return self.manager.end_epoch(max_moves)

    @property
    def stats(self):
        """Tier status dict, surfaced on the ``robust_stats`` walk."""
        return self.manager.status()
