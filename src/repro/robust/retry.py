"""Bounded retries with exponential backoff for transient read faults.

``tf.data`` and production loaders treat input-pipeline failure isolation
as table stakes: a transient PFS hiccup must not kill a multi-hour run.
:class:`RetryingSource` wraps any ``SampleSource`` with bounded retries,
exponential backoff with seeded jitter (so replays stay deterministic), a
per-read wall-clock budget, and retry/abort accounting.  With
``verify=True`` it also checksums every blob it returns — a bit-flip in
flight becomes a retryable :class:`CorruptSampleError` instead of garbage
handed to the decoder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.encoding.container import CorruptSampleError, verify_sample
from repro.observe import trace as observe
from repro.pipeline.sources import read_batch_slots

__all__ = ["RetryPolicy", "RetryStats", "RetryingSource"]


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for one source.

    Attempt ``k`` (0-based) sleeps ``base_delay_s * 2**k`` before retrying,
    capped at ``max_delay_s``, with a uniform jitter of ±``jitter`` of the
    delay.  ``timeout_s`` bounds the whole read — attempts plus backoff —
    in wall-clock seconds; when the budget cannot fit another delay the
    read aborts with the last error instead of sleeping past it.

    An exception carrying a ``retry_after_s`` attribute (the server's
    admission-control shed hint, :class:`~repro.serve.client.ServerBusyError`)
    raises the floor of the next delay to that hint — the server knows
    when the next token lands; sleeping less would just be shed again.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.001
    max_delay_s: float = 0.1
    jitter: float = 0.5
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        base = min(self.base_delay_s * (2.0 ** attempt), self.max_delay_s)
        if self.jitter == 0.0 or base == 0.0:
            return base
        return base * (1.0 - self.jitter + 2.0 * self.jitter * rng.random())


@dataclass
class RetryStats:
    """Accounting across a :class:`RetryingSource`'s lifetime."""

    reads: int = 0  # successful reads
    retries: int = 0  # individual failed attempts that were retried
    aborts: int = 0  # reads abandoned after exhausting attempts/budget
    verify_failures: int = 0  # attempts rejected by checksum verification
    backoff_seconds: float = 0.0  # total time spent sleeping
    errors: dict = field(default_factory=dict)  # exception type name → count

    def _count_error(self, exc: Exception) -> None:
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1


class RetryingSource:
    """Retry decorator for any ``SampleSource``.

    ``read`` is the primitive: one sample, retried under the policy.  A
    group (``read_batch_slots``) retries a failed whole exchange under
    the same backoff loop, then each failed slot through ``read``.

    Parameters
    ----------
    inner:
        The wrapped source.
    policy:
        Backoff/attempt/timeout configuration.
    verify:
        Checksum every blob (container v2) before returning it; a mismatch
        counts as a retryable failure.  v1 blobs pass unchecked.
    retryable:
        Exception types worth retrying.  Defaults to transient I/O errors
        plus :class:`CorruptSampleError` (in-flight corruption re-reads
        cleanly; at-rest corruption exhausts the budget and surfaces).
    seed:
        Seeds the jitter RNG so chaos replays are bit-identical.
    sleep / clock:
        Injection points for tests.
    """

    def __init__(
        self,
        inner,
        policy: RetryPolicy | None = None,
        *,
        verify: bool = False,
        retryable: tuple = (OSError, TimeoutError, CorruptSampleError),
        seed: int = 0,
        sleep=time.sleep,
        clock=time.monotonic,
    ) -> None:
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self.verify = verify
        self.retryable = retryable
        self.stats = RetryStats()
        self._rng = np.random.default_rng(seed)
        self._sleep = sleep
        self._clock = clock

    def __len__(self) -> int:
        return len(self.inner)

    def _retry(self, attempt_fn, *args, **span_meta):
        """``attempt_fn(*args)`` under the policy — the one backoff loop.

        Attempts, jittered delay, the ``retry_after_s`` floor, the
        ``timeout_s`` deadline and the retry/abort accounting, shared by
        the scalar read and the whole-exchange retry of a group.
        """
        policy = self.policy
        deadline = (
            self._clock() + policy.timeout_s
            if policy.timeout_s is not None
            else None
        )
        for attempt in range(policy.max_attempts):
            try:
                with observe.span("retry.attempt", attempt=attempt,
                                  **span_meta):
                    return attempt_fn(*args)
            except self.retryable as exc:
                last_exc = exc
                self.stats._count_error(exc)
                if attempt + 1 >= policy.max_attempts:
                    break
                delay = policy.delay(attempt, self._rng)
                hint = getattr(exc, "retry_after_s", None)
                if hint:  # server-suggested backoff floors the schedule
                    delay = max(delay, float(hint))
                if deadline is not None and self._clock() + delay > deadline:
                    break  # budget exhausted: abort rather than overshoot
                self.stats.retries += 1
                if delay > 0:
                    self._sleep(delay)
                self.stats.backoff_seconds += delay
        self.stats.aborts += 1
        last_exc.retry_attempts = policy.max_attempts  # type: ignore[attr-defined]
        raise last_exc

    def _verify(self, index: int, blob: bytes) -> None:
        try:
            verify_sample(blob, sample_id=index)
        except CorruptSampleError:
            self.stats.verify_failures += 1
            raise

    def _read_once(self, index: int) -> bytes:
        blob = self.inner.read(index)
        if self.verify:
            self._verify(index, blob)
        return blob

    def read(self, index: int) -> bytes:
        blob = self._retry(self._read_once, index, index=index)
        self.stats.reads += 1
        return blob

    def read_batch_slots(self, indices) -> list:
        """Batched read with retries at both granularities.

        The inner batched call is retried as a whole on *whole-exchange*
        retryable failures (a transport fault damages every slot at once
        — e.g. a truncated ``READ_BATCH`` frame); individual failed slots
        are then retried through the scalar :meth:`read` path with its
        own backoff budget, so one flaky sample consumes one sample's
        retry budget, not the batch's.
        """
        indices = [int(i) for i in indices]
        if not indices:
            return []
        slots = self._retry(
            read_batch_slots, self.inner, indices, batch=len(indices)
        )
        for pos, (index, slot) in enumerate(zip(indices, slots)):
            if self.verify and not isinstance(slot, Exception):
                try:
                    self._verify(index, slot)
                except CorruptSampleError as exc:
                    slot = exc
            if not isinstance(slot, Exception):
                self.stats.reads += 1
            elif isinstance(slot, self.retryable):
                try:
                    slot = self.read(index)  # scalar retry budget
                except Exception as exc:  # noqa: BLE001 — slot-isolated
                    slot = exc
            else:
                self.stats._count_error(slot)
            slots[pos] = slot
        return slots
