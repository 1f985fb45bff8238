"""The four workloads and the served system they may stand on.

Each workload builds paper-shaped (>= 1 MB raw) samples from the seed,
stages them where its source reads them, builds the system under test
and warms it.  What happens in the timed phases is the same for all and
lives in :mod:`measure`; a workload only says *what* is read and through
which stack.  ``README.md`` records why each workload exists.

Every epoch order is a pure function of ``(seed, epoch)``.
"""

from __future__ import annotations

import hashlib
import json
import select
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import common

from repro.cluster import ClusterSource
from repro.core.plugins.cosmoflow import CosmoflowLutPlugin
from repro.core.plugins.deepcam import DeepcamBaselinePlugin, DeepcamDeltaPlugin
from repro.datasets import cosmoflow, deepcam
from repro.ingest import IngestWriter, ManifestSource, verify_manifest
from repro.pipeline import DataLoader, ListSource, TfRecordSource
from repro.robust import RetryingSource
from repro.serve import ShardPlan
from repro.storage.tfrecord import TfRecordWriter
from repro.tune.stats import StatsRegistry

BATCH_SIZE = 4
WARM_EPOCH = 0
VERIFY_EPOCH = 1
FIRST_TIMED_EPOCH = 2

# Sizes.  ``full`` is the issue's: sample shapes (CosmoFlow 4x64^3 int16
# = 2 MB raw, DeepCAM 16x192x288 FP32 = 3.5 MB raw) and sample counts.
# ``epoch_samples`` is how many samples one loader epoch delivers (whole
# shuffled passes over the data set, concatenated), ``ladder_samples``
# how many each ladder rung replays.  On ``ingest_live`` ``n`` is the
# pool of pre-encoded blobs the appended stream cycles through.
# ``tiny`` exists for the self-tests only.
SCALES = {
    "full": {
        "cosmoflow_local": dict(n=24, grid=64, particles=200_000,
                                epoch_samples=96, ladder_samples=48),
        "deepcam_disk": dict(n=48, height=192, width=288, epoch_samples=48,
                             ladder_samples=16),
        "cluster_fetch": dict(n=32, height=192, width=288, epoch_samples=64,
                              ladder_samples=32),
        "ingest_live": dict(n=16, height=192, width=288, prefill=32,
                            append_hz=8.0, publish_every=8,
                            ladder_samples=16),
    },
    "tiny": {
        "cosmoflow_local": dict(n=4, grid=16, particles=4_000,
                                epoch_samples=8, ladder_samples=8),
        "deepcam_disk": dict(n=4, height=32, width=48, epoch_samples=8,
                             ladder_samples=8),
        "cluster_fetch": dict(n=4, height=32, width=48, epoch_samples=8,
                              ladder_samples=8),
        "ingest_live": dict(n=4, height=32, width=48, prefill=4,
                            append_hz=40.0, publish_every=2,
                            ladder_samples=8),
    },
}


def write_record_file(path: Path, blobs) -> Path:
    with TfRecordWriter(path) as writer:
        for blob in blobs:
            writer.write(blob)
    return path


def digest_epoch(loader: DataLoader, epoch: int):
    """One loader epoch as per-sample digests of tensor and label bytes.

    Returns ``(digests, order, quarantined)``: the digests in delivery
    order, the epoch's index order, and the indices the loader skipped.
    """
    before = len(loader.quarantine)
    digests = []
    for tensors, labels in loader.batches(epoch):
        digests.extend(
            sample_digest(t, l) for t, l in zip(tensors, labels)
        )
    quarantined = {e.sample_id for e in loader.quarantine.entries[before:]}
    return digests, loader.epoch_order(epoch).tolist(), quarantined


def sample_digest(tensor: np.ndarray, label: np.ndarray) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(tensor).tobytes())
    h.update(np.ascontiguousarray(label).tobytes())
    return h.digest()


# -- the served system -------------------------------------------------------


class ClusterRig:
    """``server.py`` as a subprocess, plus its control channel.

    ``close`` always reaps the process: ``quit`` first, then kill.
    """

    START_TIMEOUT_S = 30.0
    CALL_TIMEOUT_S = 30.0

    def __init__(self, record: Path, nvme_dir: Path, blob_bytes: int,
                 n_blobs: int, timing: bool) -> None:
        # Each of the two workers is first choice for about half of the
        # indices.  Its RAM level holds about three quarters of that
        # share and the NVMe level the rest, so the median read is a RAM
        # hit and the 95th percentile an NVMe hit; a budget of exactly
        # half would put the median on the boundary between the two.
        ram_budget = blob_bytes * (n_blobs * 3 / 8 + 0.5)
        self.proc = subprocess.Popen(
            [sys.executable, str(common.HERE / "server.py"),
             "--record", str(record), "--nvme-dir", str(nvme_dir),
             "--ram-budget", repr(ram_budget),
             "--echo-bytes", str(blob_bytes), "--timing", str(int(timing))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = self._reply(self.START_TIMEOUT_S)
        except BaseException:
            self.close()
            raise
        self.echo_bytes = blob_bytes
        self.dispatcher = tuple(ready["dispatcher"])
        self.workers = [tuple(w) for w in ready["workers"]]
        self.echo_port = int(ready["echo"])

    def _reply(self, timeout_s: float) -> dict:
        ok, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline() if ok else ""
        if not line:
            raise RuntimeError(
                f"server.py gave no reply within {timeout_s:.0f} s "
                f"(exit code {self.proc.poll()})"
            )
        return json.loads(line)

    def call(self, cmd: str) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd}) + "\n")
        self.proc.stdin.flush()
        return self._reply(self.CALL_TIMEOUT_S)

    def settle(self, source, n: int) -> list[float]:
        """Two read passes with a migration cycle after each, so tier
        placement is settled before anything is timed.  Returns the
        per-worker ``end_epoch`` milliseconds."""
        end_epoch_ms: list[float] = []
        for _ in range(2):
            for index in range(n):
                source.read(index)
            end_epoch_ms.extend(self.call("end_epoch")["ms"])
        return end_epoch_ms

    def close(self) -> None:
        proc = self.proc
        if proc.poll() is None:
            try:
                self.call("quit")
                proc.wait(timeout=10.0)
            except (OSError, RuntimeError, ValueError,
                    subprocess.TimeoutExpired):
                proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()


# -- the open-loop ingester --------------------------------------------------


class Appender:
    """Open-loop generator: append ``k`` is due at ``t0 + k / hz``.

    Latency is taken from the *due* time, so an append delayed by a slow
    predecessor (or a long ``publish``) is charged the wait it imposed.
    """

    def __init__(self, writer: IngestWriter, blob_of, hz: float,
                 publish_every: int) -> None:
        self.writer = writer
        self.blob_of = blob_of
        self.period = 1.0 / hz
        self.publish_every = publish_every
        self.stop = threading.Event()
        self.service_s: list[float] = []  # append() call alone
        self.from_due_s: list[float] = []  # due time -> append returned
        self.late_s: list[float] = []  # how late the generator started it
        self.publish_s: list[float] = []
        self.appended_bytes = 0
        self.failures = 0

    def run(self, count: int | None = None) -> None:
        """Append until ``stop`` is set (or ``count`` appends were due)."""
        t0 = perf_counter()
        k = 0
        while count is None or k < count:
            due = t0 + k * self.period
            if self.stop.wait(max(0.0, due - perf_counter())):
                return
            start = perf_counter()
            k += 1
            try:
                blob = self.blob_of(self.writer.n_samples)
                self.writer.append(blob)
            except Exception:  # noqa: BLE001 — counted, reported as failed
                self.failures += 1
                continue
            done = perf_counter()
            self.appended_bytes += len(blob)
            self.late_s.append(start - due)
            self.service_s.append(done - start)
            self.from_due_s.append(done - due)
            if k % self.publish_every == 0:
                try:
                    self.writer.publish()
                except Exception:  # noqa: BLE001 — counted as well
                    self.failures += 1
                    continue
                self.publish_s.append(perf_counter() - done)


# -- workloads ---------------------------------------------------------------


class Workload:
    """Set-up, sources and epoch orders of one workload."""

    name = ""
    #: codec checked against ``repro.conformance`` (None: raw containers)
    codec: str | None = None
    loader_kwargs: dict = {}
    #: confine the run, and what it starts, to one CPU.  Set where the
    #: work is spread over threads or processes: the sandbox's second
    #: vCPU is not reliably there, and throughput that depends on it (or
    #: on wake-ups across vCPUs) spreads 0.12-0.17 between runs of the
    #: same code, against 0.02-0.04 on one CPU (README, noise floor).
    one_cpu = False
    PHASES = ("dataset", "stage", "system", "warm")
    # what only some workloads have; None elsewhere
    source = None  # what the loader reads (set in stage() or system())
    record: Path | None = None  # record file the blobs are staged in
    rig: ClusterRig | None = None  # the served system
    appender: Appender | None = None  # the live writer

    def __init__(self, seed: int, scale: str, workdir, timing: bool = False):
        self.seed = int(seed)
        self.p = SCALES[scale][self.name]
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.timing = timing  # ask the server for its timing proxies
        self.plugin = self.make_plugin()
        # a traced run swaps timing proxies in at these two seams
        self.wrap_source = lambda source: source
        self.loader_plugin = self.plugin
        self.loader: DataLoader | None = None
        self.stats = StatsRegistry()  # shared by every loader of the run

    # -- set-up: four timed phases ----------------------------------------

    def setup(self) -> dict:
        seconds = {}
        for phase in self.PHASES:
            t0 = perf_counter()
            getattr(self, phase)()
            seconds[phase] = perf_counter() - t0
        return seconds

    def dataset(self) -> None:
        samples = self.generate()
        self.raw_bytes = int(samples[0].data.nbytes)
        self.encode_s: list[float] = []
        self.blobs: list[bytes] = []
        for sample in samples:
            t0 = perf_counter()
            self.blobs.append(self.plugin.encode(sample.data, sample.label))
            self.encode_s.append(perf_counter() - t0)

    def system(self) -> None:
        self.loader = self.make_loader()

    def warm(self) -> None:
        for _ in self.loader.batches(WARM_EPOCH):
            pass

    def close(self) -> None:
        pass

    # -- what the timed phases read ---------------------------------------

    def make_loader(self, order_fn=None) -> DataLoader:
        """The workload's loader over its (possibly proxied) source."""
        return DataLoader(
            self.wrap_source(self.source), self.loader_plugin,
            batch_size=BATCH_SIZE, order_fn=order_fn or self.epoch_order,
            bad_sample_policy="skip", stats=self.stats, **self.loader_kwargs,
        )

    def loader_for_epoch(self, epoch: int) -> DataLoader:
        return self.loader

    def fetch_source(self):
        """Phase A stack: scalar, integrity-checked reads."""
        return RetryingSource(self.source, verify=True, seed=self.seed)

    def local_source(self):
        """The source that touches storage on this workload (ladder rung)."""
        return self.source

    def blob_id(self, index: int) -> int:
        """Which of ``self.blobs`` global sample ``index`` holds."""
        return index

    def blob_of(self, index: int) -> bytes:
        """The bytes global sample ``index`` must read back as."""
        return self.blobs[self.blob_id(index)]

    def verification_loader(self) -> DataLoader:
        """The loader the untimed verification epoch runs on."""
        return self.loader

    def epoch_order(self, epoch: int) -> np.ndarray:
        n = len(self.blobs)
        want = self.p["epoch_samples"]
        rng = np.random.default_rng([self.seed, epoch])
        passes = [rng.permutation(n) for _ in range(-(-want // n))]
        return np.concatenate(passes)[:want].astype(np.int64)

    # -- hooks around the timed phases ------------------------------------

    def begin_timed(self) -> None:
        pass

    def end_timed(self) -> None:
        pass

    def server_usage(self) -> dict:
        """CPU seconds and peak RSS of the server subprocess, if any."""
        return {"cpu_s": 0.0, "rss_mb": 0.0}

    def writes(self) -> tuple[int, int]:
        """Appends attempted and failed during the timed phases."""
        return 0, 0

    def final_checks(self, digests: list) -> int:
        """Workload-specific end-of-run checks; returns failures found.

        ``digests`` are the verification epoch's per-sample digests.
        """
        return 0


class CosmoflowLocal(Workload):
    name = "cosmoflow_local"
    codec = "lut"
    loader_kwargs = dict(graph=True, num_workers=0)

    def make_plugin(self):
        return CosmoflowLutPlugin("cpu")

    def generate(self):
        cfg = cosmoflow.CosmoflowConfig(
            grid=self.p["grid"], n_particles=self.p["particles"]
        )
        return cosmoflow.generate_dataset(self.p["n"], cfg, seed=self.seed)

    def stage(self) -> None:
        self.source = ListSource(self.blobs)


class _DeepcamWorkload(Workload):
    def generate(self):
        cfg = deepcam.DeepcamConfig(
            height=self.p["height"], width=self.p["width"]
        )
        return deepcam.generate_dataset(self.p["n"], cfg, seed=self.seed)

    def stage(self) -> None:
        self.record = write_record_file(self.dir / "data.rec", self.blobs)


class DeepcamDisk(_DeepcamWorkload):
    name = "deepcam_disk"
    codec = "delta"
    one_cpu = True  # two worker threads
    loader_kwargs = dict(batched_fetch=True, num_workers=2, prefetch_depth=4,
                         verify_reads=True)

    def make_plugin(self):
        return DeepcamDeltaPlugin("cpu")

    def system(self) -> None:
        self.source = TfRecordSource(self.record)
        super().system()

    def close(self) -> None:
        if self.source is not None:
            self.source.close()


class ClusterFetch(_DeepcamWorkload):
    name = "cluster_fetch"
    one_cpu = True  # client and server take turns, one request in flight
    loader_kwargs = dict(batched_fetch=True, num_workers=0)

    cluster: ClusterSource | None = None
    _local: TfRecordSource | None = None

    def make_plugin(self):
        return DeepcamBaselinePlugin()

    def system(self) -> None:
        self.rig = ClusterRig(
            self.record, self.dir / "nvme", len(self.blobs[0]),
            len(self.blobs), self.timing,
        )
        self.cluster = ClusterSource(self.rig.dispatcher, seed=self.seed)
        self.source = RetryingSource(self.cluster, verify=True, seed=self.seed)
        super().system()

    def warm(self) -> None:
        self.rig.settle(self.source, len(self.blobs))
        super().warm()

    def fetch_source(self):
        return self.source  # already RetryingSource(verify=True)

    def local_source(self):
        if self._local is None:
            self._local = TfRecordSource(self.record)
        return self._local

    def server_usage(self) -> dict:
        return self.rig.call("usage")

    def close(self) -> None:
        if self._local is not None:
            self._local.close()
        if self.cluster is not None:
            self.cluster.close()
        if self.rig is not None:
            self.rig.close()


class IngestLive(_DeepcamWorkload):
    name = "ingest_live"
    codec = "delta"
    loader_kwargs = dict(num_workers=0)

    writer: IngestWriter | None = None
    _thread: threading.Thread | None = None

    def make_plugin(self):
        return DeepcamDeltaPlugin("cpu")

    def blob_id(self, index: int) -> int:
        # the appended stream cycles through the pre-encoded pool, so
        # global index i always holds pool blob i mod n
        return index % len(self.blobs)

    def stage(self) -> None:
        self.root = self.dir / "ingest"
        self.writer = IngestWriter(
            self.root, fingerprint={"plugin": "deepcam-delta-cpu"}
        )
        for index in range(self.p["prefill"]):
            self.writer.append(self.blob_of(index))
        self.writer.publish()

    def system(self) -> None:
        self.pinned = []  # every manifest an epoch or phase pinned
        self.pin()
        super().system()
        self.appender = Appender(
            self.writer, self.blob_of, self.p["append_hz"],
            self.p["publish_every"],
        )

    def pin(self) -> None:
        """Re-pin the reader to ``ManifestStore.latest()``; a loader on
        the previous manifest's source is dropped with it."""
        manifest = self.writer.store.latest()
        if self.source is not None:
            if self.source.manifest.manifest_id == manifest.manifest_id:
                return
            self.source.close()
        self.source = ManifestSource(self.root, manifest)
        self.pinned.append(manifest)
        self.loader = None

    def loader_for_epoch(self, epoch: int) -> DataLoader:
        self.pin()
        if self.loader is None:
            self.loader = self.make_loader()
        return self.loader

    def fetch_source(self):
        self.pin()
        return super().fetch_source()

    def epoch_order(self, epoch: int) -> np.ndarray:
        return ShardPlan(len(self.source), seed=self.seed).epoch_order(epoch)

    def begin_timed(self) -> None:
        self.appender.stop.clear()
        self._thread = threading.Thread(
            target=self.appender.run, name="perf-ingest", daemon=True
        )
        self._thread.start()

    def end_timed(self) -> None:
        self.appender.stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            if self._thread.is_alive():
                raise RuntimeError("ingest thread did not stop")
            self._thread = None

    def writes(self) -> tuple[int, int]:
        a = self.appender
        return len(a.service_s) + a.failures, a.failures

    def verification_loader(self) -> DataLoader:
        """A fresh reader pinned to the run's *last* manifest, which
        holds every sample appended during the timed phases (``publish``
        first, for the appends since the writer's last one)."""
        self.writer.publish()
        self.source.close()
        self.source = None
        self.pin()
        self.loader = self.make_loader()
        return self.loader

    def final_checks(self, digests: list) -> int:
        """``verify_manifest(deep)`` of the manifest the verification
        epoch ran on, and a bit-identical replay of that epoch."""
        failures = 0
        try:
            verify_manifest(self.root, self.pinned[-1], deep=True)
        except ValueError:  # CorruptSampleError included
            failures += 1
        replay, _, _ = digest_epoch(self.verification_loader(), VERIFY_EPOCH)
        if replay != digests:
            failures += 1
        return failures

    def close(self) -> None:
        if self._thread is not None:
            self.appender.stop.set()
            self._thread.join(timeout=30.0)
        if self.source is not None:
            self.source.close()
        if self.writer is not None:
            self.writer.close()


WORKLOADS = {
    cls.name: cls
    for cls in (CosmoflowLocal, DeepcamDisk, ClusterFetch, IngestLive)
}
