"""Self-tests of the perf benchmark (``python -m pytest benchmarks/perf``).

They run the real command at ``--scale tiny`` and check the instrument,
not the system: metric names against ``BENCHMARK.json``, that a
corrupted blob is counted, span arithmetic, and seed determinism.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading

import pytest

import common
import measure
import run
import spans
import workloads
from repro.pipeline import ListSource

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CONTRACT = common.load_contract()
WORKLOAD_NAMES = [w["name"] for w in CONTRACT["workloads"]]


def tiny(name, tmp_path, trace=False, seed=3):
    return run.run_workload(name, seed, 0.4, trace, "tiny", tmp_path)


# -- BENCHMARK.json ----------------------------------------------------------


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert WORKLOAD_NAMES == sorted(workloads.WORKLOADS, key=WORKLOAD_NAMES.index)
    names = []
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.10
        names.append(m["name"])
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    assert len(names) == len(set(names))
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


# -- the command, at tiny scale ----------------------------------------------


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_emits_exactly_the_contract_names(name, trace, tmp_path):
    record = tiny(name, tmp_path, trace)
    key = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in CONTRACT[key]}
    assert {k: m["unit"] for k, m in record["metrics"].items()} == wanted
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 1
    assert record["tag"] == "measured" and record["seed"] == 3
    assert {"nproc", "cpu_model", "python", "numpy"} <= set(record["machine"])
    assert all("n" in m for m in record["metrics"].values())
    if trace:
        lines = (tmp_path / f"spans-{name}.jsonl").read_text().splitlines()
        assert lines and not record["span_problems"]
        assert set(json.loads(lines[0])) == set(spans.Span.__slots__)
    else:  # end-to-end metrics are never 0
        assert all(m["value"] > 0 for m in record["metrics"].values())
    assert not list((common.HERE / "_work").iterdir())


def test_cli_ends_with_the_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(common.HERE / "run.py"), "--workload",
         "cosmoflow_local", "--seed", "5", "--seconds", "0.3", "--trace", "0",
         "--scale", "tiny", "--out", str(tmp_path)],
        capture_output=True, text=True, check=True, cwd=common.ROOT,
    )
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_refuses_a_checkout_without_the_source_tree(tmp_path):
    shutil.copy(common.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        common.HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "cosmoflow_local", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=False, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_aa_reports_every_metric(tmp_path, capsys):
    assert run.main(["--aa", "2", "--workload", "cosmoflow_local", "--scale",
                     "tiny", "--seconds", "0.2", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "aa-n2-seed0.json").read_text())["report"]
    assert [r["metric"] for r in report] == [
        m["name"] for m in CONTRACT["end_to_end"]]
    assert all(r["verdict"] in ("PASS", "UNRESOLVED") for r in report)
    assert "verdict" in capsys.readouterr().out


def test_corrupted_blob_raises_failed(tmp_path, monkeypatch):
    class Corrupted(workloads.CosmoflowLocal):
        def stage(self):
            bad = bytearray(self.blobs[0])
            bad[-5] ^= 1  # payload bit flip: the container CRC must catch it
            self.source = ListSource([bytes(bad)] + self.blobs[1:])

    monkeypatch.setitem(run.WORKLOADS, "cosmoflow_local", Corrupted)
    record = tiny("cosmoflow_local", tmp_path)
    assert record["failed"] > 0 and not record["correct"]
    assert record["failed"] < record["attempted"]


def test_ingest_verification_covers_what_the_timed_rounds_appended(tmp_path):
    w = workloads.WORKLOADS["ingest_live"](3, "tiny", tmp_path)
    try:
        w.setup()
        tally = measure.Tally()
        w.begin_timed()
        try:
            measure.timed_rounds(w, 0.4, tally)
        finally:
            w.end_timed()
        appended, _ = w.writes()
        loader = w.verification_loader()
        assert appended > 0
        assert len(loader.epoch_order(workloads.VERIFY_EPOCH)) \
            == w.p["prefill"] + appended == w.writer.n_samples
        measure.verify(w, tally)
        assert tally.failed == 0
    finally:
        w.close()


def test_a_failed_publish_keeps_the_append_timings():
    class Writer:
        n_samples = 0

        def append(self, blob):
            self.n_samples += 1

        def publish(self):
            raise OSError("disk full")

    a = workloads.Appender(Writer(), lambda i: b"x", hz=1000.0, publish_every=2)
    a.run(4)
    assert len(a.service_s) == len(a.from_due_s) == len(a.late_s) == 4
    assert a.failures == 2 and a.publish_s == []


# -- spans -------------------------------------------------------------------


def test_self_time_on_a_synthetic_tree():
    S = spans.Span
    tree = [
        S(1, None, "t", "root", 0.0, 10.0),
        S(2, 1, "t", "a", 1.0, 3.0),
        S(3, 1, "t", "b", 2.0, 5.0),   # overlaps a: 1..5 counted once
        S(4, 1, "t", "c", 8.0, 12.0),  # clipped to the parent's end
        S(5, 3, "t", "d", 2.5, 3.5),
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[3] == pytest.approx(2.0) and selfs[5] == pytest.approx(1.0)
    assert spans.check_parents(tree) == []
    summary = spans.summarize(tree)
    assert summary["root"] == {"n": 1, "total_ms": 10e3, "self_ms": 4e3}
    orphan = tree + [S(6, 99, "t", "x", 1.0, 2.0)]
    assert any("unknown parent" in p for p in spans.check_parents(orphan))
    strayed = tree + [S(7, 1, "other", "y", 1.0, 2.0)]
    assert any("left its trace" in p for p in spans.check_parents(strayed))


def test_worker_thread_spans_adopt_the_open_batch():
    rec = spans.SpanRecorder()

    def worker():
        with rec.span("sources.read"):
            with rec.span("inner"):
                pass

    with rec.span("loader.batch", trace=7) as batch:
        rec.root = batch
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    with rec.span("loader.batch", trace=8):  # explicit trace: a new tree
        pass
    by_name = {sp.name: sp for sp in rec.spans if sp.trace == 7}
    assert by_name["sources.read"].parent == batch.id
    assert by_name["inner"].parent == by_name["sources.read"].id
    assert [sp.parent for sp in rec.spans if sp.trace == 8] == [None]
    assert spans.check_parents(rec.spans) == []


# -- determinism -------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_inputs_and_orders(name, tmp_path):
    def build(seed, sub):
        w = workloads.WORKLOADS[name](seed, "tiny", tmp_path / sub)
        w.dataset()
        w.stage()
        try:
            if name == "ingest_live":
                w.system()  # the order is derived from the pinned manifest
            return w.blobs, [w.epoch_order(e).tolist() for e in range(3)]
        finally:
            w.close()

    blobs_a, orders_a = build(11, "a")
    blobs_b, orders_b = build(11, "b")
    blobs_c, orders_c = build(12, "c")
    assert blobs_a == blobs_b and orders_a == orders_b
    assert blobs_a != blobs_c and orders_a != orders_c
    assert orders_a[0] != orders_a[1]
