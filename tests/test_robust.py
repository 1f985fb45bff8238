"""Tests for the fault-tolerance subsystem: injection, retries, policies.

The chaos acceptance criteria live here:

* a seeded 5% transient-IOError epoch under ``RetryingSource`` is
  *bit-identical* to the fault-free epoch, and
* a 1%-permanently-corrupted epoch under ``bad_sample_policy="skip"``
  completes with the quarantine listing exactly the corrupted ids.
"""

import numpy as np
import pytest

from repro.core.encoding.container import CorruptSampleError, verify_sample
from repro.core.plugins import DeepcamDeltaPlugin
from repro.datasets import deepcam
from repro.pipeline import DataLoader, ListSource
from repro.robust import (
    FaultInjector,
    FaultPlan,
    FaultyTier,
    QuarantineLog,
    RetryingSource,
    RetryPolicy,
)
from repro.storage import Tier, TierSpec


@pytest.fixture(scope="module")
def small_blobs():
    cfg = deepcam.DeepcamConfig(height=16, width=24, n_channels=4)
    plugin = DeepcamDeltaPlugin("cpu")
    ds = deepcam.generate_dataset(8, cfg, seed=7)
    return plugin, [plugin.encode(s.data, s.label) for s in ds]


@pytest.fixture(scope="module")
def epoch_blobs():
    """A larger set for the chaos epoch tests (100 samples → 1% granularity)."""
    cfg = deepcam.DeepcamConfig(height=8, width=12, n_channels=2)
    plugin = DeepcamDeltaPlugin("cpu")
    ds = deepcam.generate_dataset(100, cfg, seed=11)
    return plugin, [plugin.encode(s.data, s.label) for s in ds]


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(io_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(bitflip_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(latency_s=-1.0)

    def test_corrupt_ids_normalized(self):
        plan = FaultPlan(corrupt_ids={1, 2})
        assert isinstance(plan.corrupt_ids, frozenset)


class TestFaultInjector:
    def test_no_faults_is_transparent(self, small_blobs):
        _, blobs = small_blobs
        inj = FaultInjector(ListSource(blobs), FaultPlan())
        assert len(inj) == len(blobs)
        assert all(inj.read(i) == blobs[i] for i in range(len(blobs)))
        assert inj.stats.total_injected == 0

    def test_io_errors_are_seeded_and_reproducible(self, small_blobs):
        _, blobs = small_blobs

        def fault_pattern(seed):
            inj = FaultInjector(
                ListSource(blobs), FaultPlan(io_error_rate=0.5, seed=seed)
            )
            pattern = []
            for i in range(len(blobs)):
                try:
                    inj.read(i)
                    pattern.append("ok")
                except IOError:
                    pattern.append("io")
            return pattern

        assert fault_pattern(3) == fault_pattern(3)
        assert fault_pattern(3) != fault_pattern(4)

    def test_retry_rerolls_transient_fault(self, small_blobs):
        """A second attempt on the same index draws fresh randomness."""
        _, blobs = small_blobs
        inj = FaultInjector(
            ListSource(blobs), FaultPlan(io_error_rate=0.5, seed=0)
        )
        recovered = 0
        for i in range(len(blobs)):
            for _ in range(20):  # retry until the fault clears
                try:
                    assert inj.read(i) == blobs[i]
                    recovered += 1
                    break
                except IOError:
                    continue
        assert recovered == len(blobs)

    def test_bitflip_detected_by_checksum(self, small_blobs):
        _, blobs = small_blobs
        inj = FaultInjector(
            ListSource(blobs), FaultPlan(bitflip_rate=1.0, seed=1)
        )
        flipped = inj.read(0)
        assert flipped != blobs[0]
        with pytest.raises(ValueError):  # CorruptSampleError or structural
            verify_sample(flipped, sample_id=0)

    def test_truncation_detected(self, small_blobs):
        _, blobs = small_blobs
        inj = FaultInjector(
            ListSource(blobs), FaultPlan(truncate_rate=1.0, seed=2)
        )
        cut = inj.read(0)
        assert len(cut) < len(blobs[0])
        with pytest.raises(ValueError):
            verify_sample(cut, sample_id=0)

    def test_latency_spike_uses_sleep_hook(self, small_blobs):
        _, blobs = small_blobs
        naps = []
        inj = FaultInjector(
            ListSource(blobs),
            FaultPlan(latency_rate=1.0, latency_s=0.25, seed=0),
            sleep=naps.append,
        )
        inj.read(0)
        assert naps == [0.25]

    def test_permanent_corruption_is_stable(self, small_blobs):
        _, blobs = small_blobs
        inj = FaultInjector(
            ListSource(blobs), FaultPlan(corrupt_ids=frozenset({3}), seed=0)
        )
        first = inj.read(3)
        assert first != blobs[3]
        # every read returns the SAME damaged bytes — retrying cannot help
        assert all(inj.read(3) == first for _ in range(3))
        with pytest.raises(CorruptSampleError):
            verify_sample(first, sample_id=3)
        # other samples are untouched
        assert inj.read(0) == blobs[0]


class TestFaultyTier:
    def _tier(self, tmp_path):
        return Tier(TierSpec("t", 1.0, 1.0, 0.0), tmp_path)

    def test_read_injection(self, tmp_path, small_blobs):
        _, blobs = small_blobs
        tier = self._tier(tmp_path)
        tier.write("a", blobs[0])
        faulty = FaultyTier(
            tier, FaultPlan(io_error_rate=1.0, seed=0), on="read"
        )
        with pytest.raises(IOError):
            faulty.read("a")
        # delegation of non-wrapped attributes
        assert faulty.spec.name == "t"
        assert faulty.has_room(1)

    def test_write_injection_damages_landed_bytes(self, tmp_path, small_blobs):
        _, blobs = small_blobs
        tier = self._tier(tmp_path)
        faulty = FaultyTier(
            tier, FaultPlan(bitflip_rate=1.0, seed=0), on="write"
        )
        faulty.write("a", blobs[0])
        assert tier.read("a") != blobs[0]

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            FaultyTier(self._tier(tmp_path), FaultPlan(), on="sideways")


class _FlakySource:
    """Fails the first ``n_failures`` reads of every index."""

    def __init__(self, blobs, n_failures, exc=IOError):
        self._blobs = blobs
        self.n_failures = n_failures
        self.exc = exc
        self.attempts = {}

    def __len__(self):
        return len(self._blobs)

    def read(self, index):
        seen = self.attempts.get(index, 0)
        self.attempts[index] = seen + 1
        if seen < self.n_failures:
            raise self.exc(f"flaky read {index} (attempt {seen})")
        return self._blobs[index]


class TestRetryingSource:
    def test_recovers_from_transient_failures(self, small_blobs):
        _, blobs = small_blobs
        src = RetryingSource(
            _FlakySource(blobs, 2),
            RetryPolicy(max_attempts=4, base_delay_s=0.0),
        )
        assert src.read(0) == blobs[0]
        assert src.stats.reads == 1
        assert src.stats.retries == 2
        assert src.stats.aborts == 0
        assert src.stats.errors == {"OSError": 2}

    def test_exhaustion_reraises_last_error(self, small_blobs):
        _, blobs = small_blobs
        src = RetryingSource(
            _FlakySource(blobs, 99),
            RetryPolicy(max_attempts=3, base_delay_s=0.0),
        )
        with pytest.raises(IOError) as ei:
            src.read(0)
        assert ei.value.retry_attempts == 3
        assert src.stats.aborts == 1
        assert src.stats.retries == 2

    def test_non_retryable_passes_through_immediately(self, small_blobs):
        _, blobs = small_blobs
        flaky = _FlakySource(blobs, 99, exc=KeyError)
        src = RetryingSource(flaky, RetryPolicy(max_attempts=5))
        with pytest.raises(KeyError):
            src.read(0)
        assert flaky.attempts[0] == 1  # no retries for unexpected errors

    def test_exponential_backoff_without_jitter(self, small_blobs):
        _, blobs = small_blobs
        naps = []
        src = RetryingSource(
            _FlakySource(blobs, 3),
            RetryPolicy(max_attempts=4, base_delay_s=0.01, max_delay_s=1.0,
                        jitter=0.0),
            sleep=naps.append,
        )
        src.read(0)
        assert naps == [0.01, 0.02, 0.04]
        assert src.stats.backoff_seconds == pytest.approx(0.07)

    def test_jitter_is_bounded_and_seeded(self, small_blobs):
        _, blobs = small_blobs

        def naps_for(seed):
            naps = []
            src = RetryingSource(
                _FlakySource(blobs, 3),
                RetryPolicy(max_attempts=4, base_delay_s=0.01,
                            max_delay_s=1.0, jitter=0.5),
                seed=seed,
                sleep=naps.append,
            )
            src.read(0)
            return naps

        # same seed → same jittered delays; delays stay within ±jitter bounds
        assert naps_for(5) == naps_for(5)
        for nap, base in zip(naps_for(5), [0.01, 0.02, 0.04]):
            assert 0.5 * base <= nap <= 1.5 * base

    def test_delay_cap(self, small_blobs):
        _, blobs = small_blobs
        naps = []
        src = RetryingSource(
            _FlakySource(blobs, 5),
            RetryPolicy(max_attempts=6, base_delay_s=0.01, max_delay_s=0.03,
                        jitter=0.0),
            sleep=naps.append,
        )
        src.read(0)
        assert max(naps) == 0.03

    def test_timeout_budget_aborts_instead_of_oversleeping(self, small_blobs):
        _, blobs = small_blobs
        now = [0.0]

        def clock():
            return now[0]

        def sleep(s):
            now[0] += s

        src = RetryingSource(
            _FlakySource(blobs, 99),
            RetryPolicy(max_attempts=100, base_delay_s=1.0, max_delay_s=1.0,
                        jitter=0.0, timeout_s=2.5),
            sleep=sleep,
            clock=clock,
        )
        with pytest.raises(IOError):
            src.read(0)
        assert src.stats.aborts == 1
        assert now[0] <= 2.5  # never slept past the budget

    def test_whole_exchange_retry_honours_the_same_deadline(self, small_blobs):
        """Scalar and group retries share one backoff loop, deadline included."""
        _, blobs = small_blobs

        class _DeadLink(ListSource):
            def read(self, index):
                raise OSError("link down")

            def read_batch_slots(self, indices):
                raise OSError("link down")

        def retrying():
            now = [0.0]

            def sleep(s):
                now[0] += s

            return now, RetryingSource(
                _DeadLink(blobs),
                RetryPolicy(max_attempts=6, base_delay_s=1.0,
                            max_delay_s=100.0, jitter=0.0, timeout_s=2.5),
                sleep=sleep,
                clock=lambda: now[0],
            )

        now, src = retrying()
        with pytest.raises(OSError) as excinfo:
            src.read_batch_slots([0, 1, 2])
        assert now[0] <= 2.5  # 1 s slept; the 2 s delay would overshoot
        assert excinfo.value.retry_attempts == 6
        assert (src.stats.retries, src.stats.aborts) == (1, 1)

        now, src = retrying()
        with pytest.raises(OSError):
            src.read(0)
        assert now[0] == 1.0
        assert (src.stats.retries, src.stats.aborts) == (1, 1)

    def test_verify_turns_bitflip_into_retry(self, small_blobs):
        _, blobs = small_blobs
        inj = FaultInjector(
            ListSource(blobs), FaultPlan(bitflip_rate=0.5, seed=0)
        )
        src = RetryingSource(
            inj, RetryPolicy(max_attempts=10, base_delay_s=0.0), verify=True
        )
        for i in range(len(blobs)):
            assert src.read(i) == blobs[i]  # always ends with clean bytes
        assert src.stats.verify_failures > 0  # and some flips were caught

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0)

    def test_len_delegates(self, small_blobs):
        _, blobs = small_blobs
        assert len(RetryingSource(ListSource(blobs))) == len(blobs)


class TestQuarantineLog:
    def test_record_and_report(self):
        log = QuarantineLog()
        assert not log and len(log) == 0
        log.record(3, 0, ValueError("boom"), "skipped")
        log.record(3, 1, ValueError("boom again"), "skipped")
        log.record(7, 1, IOError("nope"), "substituted")
        assert len(log) == 3
        assert log.ids() == [3, 7]
        assert log.ids(epoch=0) == [3]
        assert log.counts_by_action() == {"skipped": 2, "substituted": 1}
        report = log.report()
        assert "ValueError" in report and "substituted" in report

    def test_empty_report(self):
        assert "empty" in QuarantineLog().report()


class TestLoaderPolicies:
    def test_invalid_policy_rejected(self, small_blobs):
        plugin, blobs = small_blobs
        with pytest.raises(ValueError):
            DataLoader(ListSource(blobs), plugin, bad_sample_policy="ignore")

    def test_raise_policy_carries_sample_index(self, small_blobs):
        plugin, blobs = small_blobs
        inj = FaultInjector(
            ListSource(blobs), FaultPlan(corrupt_ids=frozenset({4}))
        )
        dl = DataLoader(inj, plugin, batch_size=2, shuffle=False,
                        num_workers=2, verify_reads=True)
        with pytest.raises(CorruptSampleError) as ei:
            list(dl.batches(0))
        assert ei.value.sample_index == 4
        assert ei.value.sample_id == 4

    def test_skip_policy_completes_and_quarantines(self, small_blobs):
        plugin, blobs = small_blobs
        bad = frozenset({1, 6})
        inj = FaultInjector(ListSource(blobs), FaultPlan(corrupt_ids=bad))
        dl = DataLoader(inj, plugin, batch_size=3, shuffle=False,
                        num_workers=2, bad_sample_policy="skip",
                        verify_reads=True)
        batches = list(dl.batches(0))
        assert sum(b.shape[0] for b, _ in batches) == len(blobs) - len(bad)
        assert set(dl.quarantine.ids()) == set(bad)
        assert dl.quarantine.counts_by_action() == {"skipped": 2}
        stats = dl.robust_stats()
        assert stats["quarantined"] == 2

    def test_substitute_policy_preserves_batch_geometry(self, small_blobs):
        plugin, blobs = small_blobs
        bad = frozenset({2, 5})
        inj = FaultInjector(ListSource(blobs), FaultPlan(corrupt_ids=bad))
        dl = DataLoader(inj, plugin, batch_size=4, shuffle=False,
                        num_workers=0, bad_sample_policy="substitute",
                        verify_reads=True)
        batches = list(dl.batches(0))
        # every sample slot is filled: 8 samples -> 4+4
        assert [b.shape[0] for b, _ in batches] == [4, 4]
        assert dl.quarantine.counts_by_action() == {"substituted": 2}
        # slot of sample 2 carries a copy of sample 1's tensor
        ref = plugin.decode(blobs[1])[0]
        assert np.array_equal(batches[0][0][2], ref)

    def test_substitute_before_first_good_sample_skips(self, small_blobs):
        plugin, blobs = small_blobs
        inj = FaultInjector(
            ListSource(blobs), FaultPlan(corrupt_ids=frozenset({0}))
        )
        dl = DataLoader(inj, plugin, batch_size=2, shuffle=False,
                        num_workers=0, bad_sample_policy="substitute",
                        verify_reads=True)
        batches = list(dl.batches(0))
        assert sum(b.shape[0] for b, _ in batches) == len(blobs) - 1
        assert dl.quarantine.counts_by_action() == {"skipped": 1}

    def test_verified_reads_identical_to_unverified(self, small_blobs):
        plugin, blobs = small_blobs
        plain = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=9)
        checked = DataLoader(ListSource(blobs), plugin, batch_size=2, seed=9,
                             verify_reads=True, bad_sample_policy="skip")
        for (a, la), (b, lb) in zip(plain.batches(0), checked.batches(0)):
            assert np.array_equal(a, b) and np.array_equal(la, lb)
        assert not checked.quarantine


@pytest.mark.chaos
class TestChaosAcceptance:
    """The ISSUE's acceptance scenarios, at 100-sample scale."""

    def _loader(self, source, plugin, policy="raise", workers=2):
        return DataLoader(source, plugin, batch_size=8, shuffle=True,
                          seed=42, num_workers=workers,
                          bad_sample_policy=policy, verify_reads=True)

    def test_transient_io_errors_yield_bit_identical_epoch(self, epoch_blobs):
        plugin, blobs = epoch_blobs
        clean = list(self._loader(ListSource(blobs), plugin).batches(0))

        inj = FaultInjector(
            ListSource(blobs), FaultPlan(io_error_rate=0.05, seed=1234)
        )
        retrying = RetryingSource(
            inj, RetryPolicy(max_attempts=6, base_delay_s=0.0), verify=True,
            seed=1234,
        )
        chaos = list(self._loader(retrying, plugin).batches(0))

        assert inj.stats.injected["io_error"] > 0  # faults really fired
        assert retrying.stats.retries > 0
        assert retrying.stats.aborts == 0
        assert len(chaos) == len(clean)
        for (a, la), (b, lb) in zip(clean, chaos):
            assert np.array_equal(a, b)
            assert np.array_equal(la, lb)

    def test_permanent_corruption_skip_quarantines_exactly(self, epoch_blobs):
        plugin, blobs = epoch_blobs
        corrupt = frozenset({17})  # 1% of 100 samples
        inj = FaultInjector(
            ListSource(blobs), FaultPlan(corrupt_ids=corrupt, seed=5)
        )
        dl = self._loader(inj, plugin, policy="skip")
        epoch = list(dl.batches(0))
        assert sum(b.shape[0] for b, _ in epoch) == len(blobs) - 1
        assert set(dl.quarantine.ids()) == set(corrupt)
        # the quarantine names the error and epoch
        entry = dl.quarantine.entries[0]
        assert entry.error_type == "CorruptSampleError"
        assert entry.epoch == 0

    def test_multi_epoch_skip_requarantines_each_epoch(self, epoch_blobs):
        plugin, blobs = epoch_blobs
        corrupt = frozenset({3, 50})
        inj = FaultInjector(
            ListSource(blobs), FaultPlan(corrupt_ids=corrupt, seed=6)
        )
        dl = self._loader(inj, plugin, policy="skip")
        for epoch in range(2):
            total = sum(b.shape[0] for b, _ in dl.batches(epoch))
            assert total == len(blobs) - len(corrupt)
            assert set(dl.quarantine.ids(epoch=epoch)) == set(corrupt)


class TestChaosExperimentHarness:
    def test_experiment_runs_and_asserts(self):
        from repro.experiments import chaos as chaos_exp

        result = chaos_exp.run(n_samples=12, num_workers=0, quiet=True)
        assert result.findings["transient_identical"] == 1.0
        assert result.findings["quarantine_exact"] == 1.0
