"""The served system under test, in a process of its own.

One ``Dispatcher`` and two ``ClusterWorker``s, each serving
``TieredSource(TfRecordSource(record))`` with verify-before-admit, a RAM
level of ``--ram-budget`` bytes and a directory-backed NVMe level for
the rest.  Client and server then do not share a GIL.  ``service_delay_s`` stays 0: every number is wall-clock.

Also here: a bare socket echo (the loopback floor the wire rungs are set
against) and, with ``--timing``, timing proxies outside and inside each
``TieredSource`` — the server half of the per-layer metrics.

Control channel: one JSON object per line on stdin, one reply per line
on stdout.  ``ready`` is printed first.  EOF on stdin shuts down, so an
abandoned server never outlives the benchmark.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
from pathlib import Path
from time import perf_counter

import common  # noqa: F401 — puts src/ on sys.path

from repro.cluster import ClusterWorker, Dispatcher
from repro.pipeline.sources import TfRecordSource
from repro.simulate.machine import SUMMIT
from repro.tiering import TieredSource, build_hierarchy

N_WORKERS = 2
# Long lease: a descheduled heartbeat thread on a 2-core sandbox must not
# expire a healthy worker and turn into failovers mid-measurement.
LEASE_S = 30.0


class TimedSource:
    """Timing proxy at the ``SampleSource`` seam: forwards ``read``.

    The wrapped sources here (``TieredSource`` and, as its backing, the
    record source) are only ever called through ``read``.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls: list[tuple[int, float]] = []  # (index, seconds)

    def __len__(self) -> int:
        return len(self.inner)

    def read(self, index: int) -> bytes:
        t0 = perf_counter()
        try:
            return self.inner.read(index)
        finally:
            self.calls.append((int(index), perf_counter() - t0))

    def drain(self) -> list[tuple[int, float]]:
        out, self.calls = self.calls, []
        return out


def _recv_exact(conn: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = conn.recv(n - len(buf))
        if not chunk:
            return b""
        buf.extend(chunk)
    return bytes(buf)


def echo_loop(listener: socket.socket, payload: bytes) -> None:
    """Answer each 8-byte size request with that many payload bytes."""
    try:
        conn, _ = listener.accept()
    except OSError:
        return  # listener closed before any client came
    with conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            head = _recv_exact(conn, 8)
            if not head:
                return
            conn.sendall(memoryview(payload)[: int.from_bytes(head, "little")])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--record", required=True)
    ap.add_argument("--nvme-dir", required=True)
    ap.add_argument("--ram-budget", type=float, required=True)
    ap.add_argument("--echo-bytes", type=int, required=True)
    ap.add_argument("--timing", type=int, default=0)
    args = ap.parse_args(argv)

    dispatcher = Dispatcher(lease_s=LEASE_S, replication=2).start()
    tiered, outer, inner, workers = [], [], [], []
    listener = socket.socket()
    try:
        for k in range(N_WORKERS):
            backing = TfRecordSource(args.record)
            if args.timing:
                backing = TimedSource(backing)
                inner.append(backing)
            manager = build_hierarchy(
                SUMMIT,
                ram_budget_bytes=args.ram_budget,
                nvme_budget_bytes=float(Path(args.record).stat().st_size),
                nvme_dir=Path(args.nvme_dir) / f"w{k}",
                backing=backing,
                verify=True,
            )
            source = TieredSource(backing, manager)
            tiered.append(source)
            if args.timing:
                source = TimedSource(source)
                outer.append(source)
            workers.append(
                ClusterWorker(source, dispatcher=dispatcher.address).start()
            )
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        threading.Thread(
            target=echo_loop, args=(listener, bytes(args.echo_bytes)),
            daemon=True,
        ).start()

        def end_epoch(_req) -> dict:
            out = {"ms": [], "moves": []}
            for source in tiered:
                t0 = perf_counter()
                out["moves"].append(source.end_epoch())
                out["ms"].append((perf_counter() - t0) * 1e3)
            return out

        def status(_req) -> dict:
            # per worker: the (index, seconds) of every read since the
            # last status call, outside and inside its TieredSource
            return {
                "tiers": [source.manager.status() for source in tiered],
                "tiered": [proxy.drain() for proxy in outer],
                "backing": [proxy.drain() for proxy in inner],
            }

        def usage(_req) -> dict:
            return {"cpu_s": common.cpu_seconds(),
                    "rss_mb": common.peak_rss_mb()}

        handlers = {"end_epoch": end_epoch, "status": status, "usage": usage}
        print(json.dumps({
            "ready": True,
            "dispatcher": list(dispatcher.address),
            "workers": [list(w.address) for w in workers],
            "echo": listener.getsockname()[1],
        }), flush=True)
        for line in sys.stdin:
            req = json.loads(line)
            if req["cmd"] == "quit":
                print(json.dumps({"bye": True}), flush=True)
                break
            print(json.dumps(handlers[req["cmd"]](req)), flush=True)
    finally:
        listener.close()
        for worker in workers:
            worker.close(drain=False, timeout_s=2.0)
        dispatcher.close(drain=False, timeout_s=2.0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
