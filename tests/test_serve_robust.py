"""The networked data path under transport faults and corruption.

The robustness acceptance criteria for ``repro.serve`` live here:
dropped connections and truncated or CRC-damaged response frames are
retried with backoff and surface as ``CorruptSampleError``/quarantine —
the trainer never silently consumes wrong bytes.

Wire-level faults are produced by a :class:`ScriptedServer`, a
hand-driven protocol peer that misbehaves on request (corrupting,
truncating, or dropping specific responses); end-to-end payload faults
reuse :class:`~repro.robust.faults.FaultInjector` around a real
:class:`~repro.serve.client.RemoteSource`.
"""

import socket
import threading
import time

import pytest

from repro.core.encoding.container import CorruptSampleError
from repro.core.plugins import DeepcamDeltaPlugin
from repro.datasets import deepcam
from repro.pipeline import DataLoader, ListSource
from repro.pipeline.sources import read_batch
from repro.robust import FaultInjector, FaultPlan, RetryingSource, RetryPolicy
from repro.serve import DataServer, RemoteSource, ServerBusyError, protocol


@pytest.fixture(scope="module")
def blobs():
    cfg = deepcam.DeepcamConfig(height=16, width=24, n_channels=4)
    plugin = DeepcamDeltaPlugin("cpu")
    ds = deepcam.generate_dataset(10, cfg, seed=13)
    return plugin, [plugin.encode(s.data, s.label) for s in ds]


class ScriptedServer:
    """Protocol peer that misbehaves per a script of READ behaviors.

    ``INFO`` is always answered honestly (the client handshakes with it);
    each ``READ`` or ``READ_BATCH`` consumes the next scripted behavior:

    * ``"ok"`` — correct response frame (also after the script runs out);
    * ``"corrupt"`` — flip a body byte, leave the CRC (payload damaged,
      stream still in sync);
    * ``"truncate"`` — send half the frame, then close (stream broken);
    * ``"drop"`` — close without responding;
    * ``"stall"`` — consume the request and answer nothing, connection
      held open (a wedged server trickling no bytes);
    * ``"busy"`` — answer with an admission-control ``ST_BUSY`` shed
      (``retry_after_s=0.05``).
    """

    def __init__(self, blobs, behaviors):
        self.blobs = blobs
        self.behaviors = list(behaviors)
        self.connections = 0
        self._closing = False
        self._listen = socket.create_server(("127.0.0.1", 0))
        self._listen.settimeout(0.05)
        self.address = self._listen.getsockname()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def close(self):
        self._closing = True
        self._thread.join(timeout=5.0)
        self._listen.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _loop(self):
        while not self._closing:
            try:
                conn, _ = self._listen.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            try:
                self._serve(conn)
            except OSError:
                pass

    def _serve(self, conn):
        with conn:
            conn.settimeout(0.05)
            while not self._closing:
                try:
                    frame = protocol.recv_frame(conn, frame_timeout_s=2.0)
                except socket.timeout:
                    continue
                except (protocol.ProtocolError, OSError):
                    return
                if frame is None:
                    return
                kind, body = frame
                if kind == protocol.OP_INFO:
                    conn.sendall(protocol.pack_frame(
                        protocol.ST_OK,
                        protocol.pack_json(
                            {"n_samples": len(self.blobs), "world_size": 1}
                        ),
                    ))
                    continue
                if kind == protocol.OP_READ_BATCH:
                    indices = protocol.unpack_indices(body)
                    reply = b"".join(
                        bytes(p)
                        for p in protocol.batch_reply_parts([
                            (protocol.SLOT_OK, self.blobs[int(i)])
                            for i in indices
                        ])
                    )
                    wire = protocol.pack_frame(protocol.ST_OK, reply)
                else:
                    index = protocol.unpack_read(body)
                    wire = protocol.pack_frame(
                        protocol.ST_OK, self.blobs[index]
                    )
                behavior = self.behaviors.pop(0) if self.behaviors else "ok"
                body_len = len(wire) - protocol._HEAD.size - protocol._CRC.size
                if behavior == "ok":
                    conn.sendall(wire)
                elif behavior == "corrupt":
                    buf = bytearray(wire)
                    buf[protocol._HEAD.size + body_len // 2] ^= 0x20
                    conn.sendall(bytes(buf))
                elif behavior == "truncate":
                    conn.sendall(wire[: len(wire) // 2])
                    return
                elif behavior == "drop":
                    return
                elif behavior == "stall":
                    continue
                elif behavior == "busy":
                    conn.sendall(protocol.pack_frame(
                        protocol.ST_BUSY,
                        protocol.pack_json(
                            {"retry_after_s": 0.05, "reason": "tokens"}
                        ),
                    ))
                else:  # pragma: no cover - script typo guard
                    raise AssertionError(behavior)


def _fast_retry(inner, **kw):
    return RetryingSource(
        inner,
        RetryPolicy(max_attempts=4, base_delay_s=0.001, max_delay_s=0.002),
        sleep=lambda s: None,
        **kw,
    )


class TestWireFaults:
    def test_corrupt_frame_surfaces_without_dropping_connection(self, blobs):
        _, raw = blobs
        with ScriptedServer(raw, ["corrupt"]) as server:
            src = RemoteSource(*server.address)
            with pytest.raises(CorruptSampleError) as exc_info:
                src.read(3)
            assert exc_info.value.sample_id == 3
            assert exc_info.value.section == "frame"
            # stream still in sync: the very next read succeeds on the
            # same connection (no reconnect)
            assert src.read(3) == raw[3]
            assert server.connections == 1
            src.close()

    def test_truncated_frame_breaks_stream_then_reconnects(self, blobs):
        _, raw = blobs
        with ScriptedServer(raw, ["truncate"]) as server:
            src = RemoteSource(*server.address)
            with pytest.raises(ConnectionError):
                src.read(0)
            assert src.read(0) == raw[0]  # transparent reconnect
            assert server.connections == 2
            src.close()

    def test_dropped_connection_raises_then_reconnects(self, blobs):
        _, raw = blobs
        with ScriptedServer(raw, ["drop"]) as server:
            src = RemoteSource(*server.address)
            with pytest.raises(ConnectionError):
                src.read(5)
            assert src.read(5) == raw[5]
            assert server.connections == 2
            src.close()

    def test_retrying_source_rides_out_wire_faults(self, blobs):
        """Each fault class is retryable: the trainer sees clean bytes."""
        _, raw = blobs
        script = ["corrupt", "drop", "truncate", "ok"]
        with ScriptedServer(raw, script) as server:
            src = _fast_retry(RemoteSource(*server.address))
            assert src.read(7) == raw[7]
            assert src.stats.retries == 3
            src.inner.close()

    def test_exhausted_retries_surface_the_corruption(self, blobs):
        _, raw = blobs
        with ScriptedServer(raw, ["corrupt"] * 10) as server:
            src = _fast_retry(RemoteSource(*server.address))
            with pytest.raises(CorruptSampleError):
                src.read(1)
            src.inner.close()


class TestReconnectBackoff:
    def test_connect_failures_are_counted_and_surfaced(self, blobs):
        _, raw = blobs
        with ScriptedServer(raw, []) as server:
            src = RemoteSource(
                *server.address,
                reconnect_backoff_s=0.001,
                reconnect_max_s=0.002,
            )
        # server is gone: the open socket dies first (EOF, not a connect
        # failure), then every dial is refused and counted
        with pytest.raises(OSError):
            src.read(0)
        assert src.reconnect_attempts == 0
        with pytest.raises(OSError):
            src.read(0)
        with pytest.raises(OSError):
            src.read(0)
        assert src.reconnect_attempts == 2
        snap = dict(src.stats.snapshot())
        assert snap["remote.connect_failures"][0] == 2
        src.close()

    def test_backoff_gate_defers_to_op_deadline_without_sleeping(self, blobs):
        """A huge pending backoff aborts the op immediately — it must not
        block a prefetch worker for the whole backoff."""
        _, raw = blobs
        with ScriptedServer(raw, []) as server:
            src = RemoteSource(
                *server.address,
                reconnect_backoff_s=30.0,
                op_timeout_s=0.5,
            )
        with pytest.raises(OSError):
            src.read(0)  # EOF on the handshake connection
        with pytest.raises(OSError):
            src.read(0)  # refused dial arms the ≥15 s backoff gate
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            src.read(0)  # gate exceeds the 0.5 s budget: abort, not sleep
        assert time.monotonic() - t0 < 0.5
        src.close()

    def test_reconnect_success_resets_the_schedule(self, blobs):
        _, raw = blobs
        with ScriptedServer(raw, []) as server:
            host, port = server.address
            src = RemoteSource(
                host, port, reconnect_backoff_s=0.001, reconnect_max_s=0.002
            )
        with pytest.raises(OSError):
            src.read(0)
        with pytest.raises(OSError):
            src.read(0)
        assert src.reconnect_attempts >= 1
        with DataServer(ListSource(raw), host=host, port=port):
            assert src.read(0) == raw[0]
            assert src.reconnect_attempts == 0
            snap = dict(src.stats.snapshot())
            assert snap["remote.reconnects"][0] == 1
            src.close()


class TestOpDeadline:
    def test_stalled_server_aborts_at_op_deadline_not_socket_timeout(
        self, blobs
    ):
        """``op_timeout_s`` is the budget that matters: a server that
        accepts and goes silent must not wedge the client for the (much
        longer) socket timeout."""
        _, raw = blobs
        with ScriptedServer(raw, ["stall", "ok"]) as server:
            src = RemoteSource(
                *server.address, timeout_s=30.0, op_timeout_s=0.3
            )
            t0 = time.monotonic()
            with pytest.raises(OSError):  # socket.timeout is an OSError
                src.read(0)
            elapsed = time.monotonic() - t0
            assert 0.2 <= elapsed < 2.0
            src.close()

    def test_deadline_timeout_is_retryable(self, blobs):
        _, raw = blobs
        with ScriptedServer(raw, ["stall", "ok"]) as server:
            src = _fast_retry(
                RemoteSource(*server.address, op_timeout_s=0.3)
            )
            assert src.read(4) == raw[4]
            assert src.stats.retries == 1
            src.inner.close()


class TestBusyHandling:
    def test_busy_raises_server_busy_error_with_hint(self, blobs):
        _, raw = blobs
        with ScriptedServer(raw, ["busy"]) as server:
            src = RemoteSource(*server.address)
            with pytest.raises(ServerBusyError) as exc_info:
                src.read(2)
            assert exc_info.value.retry_after_s == pytest.approx(0.05)
            assert exc_info.value.reason == "tokens"
            # being shed is not a transport fault: same connection serves
            # the retry
            assert src.read(2) == raw[2]
            assert server.connections == 1
            assert dict(src.stats.snapshot())["remote.busy"][0] == 1
            src.close()

    def test_retry_delay_is_floored_by_the_shed_hint(self, blobs):
        """RetryPolicy honours retry_after_s: sleeping less than the
        server's token-refill estimate would just be shed again."""
        _, raw = blobs
        sleeps = []
        with ScriptedServer(raw, ["busy", "ok"]) as server:
            src = RetryingSource(
                RemoteSource(*server.address),
                RetryPolicy(
                    max_attempts=3, base_delay_s=0.0001, max_delay_s=0.0002
                ),
                sleep=sleeps.append,
            )
            assert src.read(1) == raw[1]
            assert src.stats.retries == 1
            assert sleeps == [pytest.approx(0.05)]
            src.inner.close()


class TestEndToEndFaultStack:
    def test_transient_faults_yield_bit_identical_epoch(self, blobs):
        """Seeded transient I/O faults on the remote path change nothing."""
        plugin, raw = blobs

        def epoch(src):
            loader = DataLoader(src, plugin, batch_size=2, seed=3)
            return [
                (b.tobytes(), l.tobytes()) for b, l in loader.batches(0)
            ]

        reference = epoch(ListSource(raw))
        with DataServer(ListSource(raw)) as server:
            remote = RemoteSource(*server.address)
            flaky = FaultInjector(
                remote, FaultPlan(io_error_rate=0.3, seed=17)
            )
            assert epoch(_fast_retry(flaky, verify=True)) == reference
            assert flaky.stats.total_injected > 0
            remote.close()

    def test_permanent_corruption_quarantined_never_wrong_bytes(self, blobs):
        """The full stack: DataServer → RemoteSource → FaultInjector →
        RetryingSource(verify) → DataLoader(skip) quarantines exactly the
        corrupted ids and decodes everything else bit-identically."""
        plugin, raw = blobs
        bad = {2, 6}
        with DataServer(ListSource(raw)) as server:
            remote = RemoteSource(*server.address)
            stack = _fast_retry(
                FaultInjector(remote, FaultPlan(corrupt_ids=bad, seed=1)),
                verify=True,
            )
            loader = DataLoader(
                stack, plugin, batch_size=2, seed=3, bad_sample_policy="skip"
            )
            order = loader.epoch_order(0)
            good = [i for i in order.tolist() if i not in bad]
            rows = []
            for batch, _labels in loader.batches(0):
                rows.extend(row.tobytes() for row in batch)
            remote.close()
        assert set(loader.quarantine.ids()) == bad
        assert rows == [plugin.decode(raw[i])[0].tobytes() for i in good]


class TestBatchWireFaults:
    """READ_BATCH under transport faults: a damaged frame hurts every
    slot at once (and is retryable); a damaged *sample* hurts one slot."""

    def test_corrupt_batch_frame_is_retryable_and_in_sync(self, blobs):
        _, raw = blobs
        with ScriptedServer(raw, ["corrupt"]) as server:
            src = RemoteSource(*server.address)
            with pytest.raises(CorruptSampleError) as exc_info:
                src.read_batch_slots([1, 4, 7])
            assert exc_info.value.section == "frame"
            assert exc_info.value.sample_id == (1, 4, 7)
            # CRC failure leaves the stream in sync: the retry rides the
            # same connection and every slot comes back clean
            assert read_batch(src, [1, 4, 7]) == [raw[1], raw[4], raw[7]]
            assert server.connections == 1
            src.close()

    def test_truncated_batch_frame_breaks_stream_then_reconnects(self, blobs):
        _, raw = blobs
        with ScriptedServer(raw, ["truncate"]) as server:
            src = RemoteSource(*server.address)
            with pytest.raises(ConnectionError):
                src.read_batch_slots([0, 2])
            assert read_batch(src, [0, 2]) == [raw[0], raw[2]]
            assert server.connections == 2
            src.close()

    def test_retrying_source_rides_out_batch_wire_faults(self, blobs):
        """A whole-frame fault damages every slot at once — and the
        whole-call retry recovers every slot at once."""
        _, raw = blobs
        with ScriptedServer(raw, ["corrupt", "truncate", "ok"]) as server:
            src = _fast_retry(RemoteSource(*server.address))
            assert src.read_batch_slots([3, 8, 5]) == [
                raw[3], raw[8], raw[5]
            ]
            assert src.stats.retries == 2
            src.inner.close()

    def test_busy_shed_covers_the_whole_batch(self, blobs):
        _, raw = blobs
        with ScriptedServer(raw, ["busy"]) as server:
            src = RemoteSource(*server.address)
            with pytest.raises(ServerBusyError) as exc_info:
                src.read_batch_slots([0, 1])
            assert exc_info.value.retry_after_s == pytest.approx(0.05)
            assert read_batch(src, [0, 1]) == [raw[0], raw[1]]
            assert server.connections == 1
            src.close()

    def test_corrupt_sample_quarantines_only_its_slot(self, blobs):
        """One corrupt blob inside a READ_BATCH becomes one SLOT_ERROR:
        the batched loader quarantines exactly that sample and decodes
        its batch-mates bit-identically."""
        plugin, raw = blobs
        bad = {2}
        flaky = FaultInjector(
            ListSource(raw), FaultPlan(corrupt_ids=bad, seed=1)
        )
        with DataServer(flaky, verify=True) as server:
            remote = RemoteSource(*server.address)
            loader = DataLoader(
                remote, plugin, batch_size=3, seed=5,
                bad_sample_policy="skip", batched_fetch=True,
            )
            order = loader.epoch_order(0)
            rows = []
            for batch, _labels in loader.batches(0):
                rows.extend(row.tobytes() for row in batch)
            snap = dict(remote.stats.snapshot())
            remote.close()
        assert set(loader.quarantine.ids()) == bad
        good = [i for i in order.tolist() if i not in bad]
        assert rows == [plugin.decode(raw[i])[0].tobytes() for i in good]
        # every full group went over the batch plane, one frame per group
        # (the tail group of one is a scalar READ, like any group of one)
        assert snap["remote.read_batch"][0] == len(raw) // 3

    def test_truncated_batch_frame_yields_bit_identical_epoch(self, blobs):
        """A batch frame lost mid-flight is a transport blip: the retry
        stack replays it and the batched epoch stays bit-identical."""
        plugin, raw = blobs

        def epoch(src, batched):
            loader = DataLoader(
                src, plugin, batch_size=2, seed=3, batched_fetch=batched
            )
            return [
                (b.tobytes(), l.tobytes()) for b, l in loader.batches(0)
            ]

        reference = epoch(ListSource(raw), False)
        with ScriptedServer(raw, ["truncate", "corrupt"]) as server:
            src = _fast_retry(RemoteSource(*server.address))
            assert epoch(src, True) == reference
            assert src.stats.retries == 2
            src.inner.close()
