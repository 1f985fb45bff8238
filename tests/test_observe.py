"""Tests for the observability plane: recorder, exporters, integrations."""

import json
import threading

import pytest

from repro.core.plugins import DeepcamDeltaPlugin
from repro.datasets import deepcam
from repro.observe import (
    TraceRecorder,
    build_trees,
    chrome_trace,
    current_trace,
    folded_stacks,
    load_spans,
    render_top,
    render_tree,
    span,
    span_from_json,
    span_to_json,
    stitch,
    top_spans,
    traced,
)
from repro.pipeline import DataLoader, ListSource
from repro.pipeline.executor import FailedItem
from repro.pipeline.ops import RandomFlipOp
from repro.robust.quarantine import QuarantineLog
from repro.tune.controller import AdaptiveController, EpochObservation
from repro.tune.stats import StatsRegistry


@pytest.fixture(scope="module")
def deepcam_blobs():
    cfg = deepcam.DeepcamConfig(height=16, width=24, n_channels=4)
    plugin = DeepcamDeltaPlugin("cpu")
    ds = deepcam.generate_dataset(5, cfg, seed=1)
    return plugin, [plugin.encode(s.data, s.label) for s in ds]


class TestRecorder:
    def test_trace_builds_a_span_tree(self):
        rec = TraceRecorder()
        with rec.trace("root", index=7):
            with span("child_a"):
                with span("grandchild"):
                    pass
            with span("child_b") as sp:
                sp.annotate(hit=True)
        spans = rec.spans()
        assert [s.name for s in spans] == [
            "grandchild", "child_a", "child_b", "root"
        ]
        root = spans[-1]
        assert root.meta == {"index": 7}
        by_name = {s.name: s for s in spans}
        assert by_name["child_a"].parent_id == root.span_id
        assert by_name["child_b"].parent_id == root.span_id
        assert by_name["grandchild"].parent_id == by_name["child_a"].span_id
        assert by_name["child_b"].meta == {"hit": True}
        assert all(s.trace_id == root.trace_id for s in spans)
        assert all(s.dur >= 0.0 for s in spans)

    def test_span_outside_a_trace_is_a_shared_noop(self):
        assert current_trace() is None
        ctx1, ctx2 = span("a"), span("b", k=1)
        assert ctx1 is ctx2  # no allocation on the disabled path
        with ctx1 as sp:
            sp.annotate(x=1)  # tolerated, dropped
            sp.name = "renamed"  # tier.hit -> tier.miss pattern
            assert sp.span_id == 0

    def test_head_sampling_is_seed_deterministic(self):
        def sampled_flags(seed):
            rec = TraceRecorder(sample_rate=0.5, seed=seed)
            flags = []
            for i in range(64):
                tr = rec.trace("t", index=i)
                with tr:
                    pass
                flags.append(tr.sampled)
            return flags

        a, b = sampled_flags(3), sampled_flags(3)
        assert a == b
        assert any(a) and not all(a)
        assert sampled_flags(4) != a

    def test_exemplars_survive_sample_rate_zero(self):
        rec = TraceRecorder(sample_rate=0.0, exemplars=2)
        for i in range(8):
            with rec.trace("t", index=i):
                pass
        assert rec.spans() == []  # nothing head-sampled into the ring
        ex = rec.exemplars()
        assert len(ex) == 2
        durs = [dur for dur, _, _ in ex]
        assert durs == sorted(durs, reverse=True)

    def test_ring_wraparound_keeps_newest(self):
        rec = TraceRecorder(capacity=4)
        for i in range(10):
            with rec.trace("t", index=i):
                pass
        spans = rec.spans()
        assert len(spans) == 4
        assert [s.meta["index"] for s in spans] == [6, 7, 8, 9]

    def test_ring_wraparound_multithreaded_writers(self):
        rec = TraceRecorder(capacity=32, exemplars=4)
        errors = []

        def worker(k):
            try:
                for i in range(50):
                    with rec.trace("t", thread=k, i=i):
                        with span("inner"):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        spans = rec.spans()
        assert len(spans) == 32  # full ring, no holes
        assert all(s is not None for s in spans)
        assert len({s.span_id for s in spans}) == 32
        assert rec.summary()["traces"] == 200

    def test_thread_local_traces_do_not_interleave(self):
        rec = TraceRecorder()
        barrier = threading.Barrier(2)
        bad = []

        def worker(k):
            barrier.wait()
            for i in range(100):
                tr = rec.trace("t", thread=k)
                with tr:
                    with span("inner"):
                        if current_trace() is not tr:
                            bad.append(k)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not bad
        for s in rec.spans():
            if s.name == "inner":
                assert s.tid != 0

    def test_distinct_procs_draw_distinct_ids(self):
        a = TraceRecorder(seed=0, proc="client")
        b = TraceRecorder(seed=0, proc="server")
        with a.trace("t"):
            pass
        with b.trace("t"):
            pass
        assert a.spans()[0].span_id != b.spans()[0].span_id

    def test_clear_resets_everything(self):
        rec = TraceRecorder()
        with rec.trace("t"):
            pass
        rec.clear()
        assert rec.spans() == []
        assert rec.exemplars() == []
        assert rec.summary()["traces"] == 0

    def test_exceptions_are_tagged_with_the_trace_id(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError) as info:
            with rec.trace("root"):
                with span("inner"):
                    raise ValueError("boom")
        assert info.value.trace_id == rec.spans()[-1].trace_id


class TestTracedHelper:
    def test_noop_without_recorder_or_trace(self):
        with traced(None, "x") as sp:
            assert sp.span_id == 0

    def test_root_trace_on_the_recorder(self):
        rec = TraceRecorder()
        with traced(rec, "publish", n=3):
            with span("flush"):
                pass
        assert [s.name for s in rec.spans()] == ["flush", "publish"]

    def test_child_span_inside_an_active_trace(self):
        rec = TraceRecorder()
        with rec.trace("root"):
            with traced(None, "publish"):
                pass
        assert [s.name for s in rec.spans()] == ["publish", "root"]


class TestSerialization:
    def test_span_json_round_trip(self):
        rec = TraceRecorder()
        with rec.trace("root", index=3):
            with span("child", hit=False):
                pass
        for s in rec.spans():
            back = span_from_json(json.loads(json.dumps(span_to_json(s))))
            assert (back.name, back.trace_id, back.span_id,
                    back.parent_id, back.proc) == (
                s.name, s.trace_id, s.span_id, s.parent_id, s.proc)
            assert back.t0 == s.t0 and back.dur == s.dur
            assert back.meta == s.meta

    def test_recorder_dump_and_load_spans(self, tmp_path):
        rec = TraceRecorder(exemplars=2)
        with rec.trace("root"):
            with span("child"):
                pass
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(rec.to_json()))
        spans = load_spans(path)
        assert {s.name for s in spans} == {"root", "child"}


class TestExporters:
    @pytest.fixture()
    def recorded(self):
        rec = TraceRecorder(proc="loader")
        for i in range(2):
            with rec.trace("loader.fetch", index=i):
                with span("read"):
                    pass
                with span("decode"):
                    pass
        return rec.spans()

    def test_build_trees_and_render(self, recorded):
        trees = build_trees(recorded)
        assert len(trees) == 2
        assert all(t["span"].name == "loader.fetch" for t in trees)
        assert all(len(t["children"]) == 2 for t in trees)
        text = render_tree(trees)
        assert "loader.fetch" in text and "  decode" in text

    def test_orphan_parents_root_their_own_tree(self, recorded):
        # drop the roots: children must still render as trees
        children = [s for s in recorded if s.name != "loader.fetch"]
        trees = build_trees(children)
        assert len(trees) == 4

    def test_chrome_trace_events(self, recorded):
        events = chrome_trace(recorded)
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 1  # one proc
        assert meta[0]["args"]["name"] == "loader"
        assert len(complete) == len(recorded)
        for ev in complete:
            assert ev["ts"] > 0 and ev["dur"] >= 0
            int(ev["args"]["trace_id"], 16)

    def test_top_spans_table(self, recorded):
        rows = top_spans(recorded)
        assert rows[0]["name"] == "loader.fetch"  # most total time
        assert {r["name"] for r in rows} == {"loader.fetch", "read",
                                             "decode"}
        assert all(r["n"] == 2 for r in rows)
        text = render_top(rows)
        assert "loader.fetch" in text

    def test_folded_stacks_self_time(self, recorded):
        lines = folded_stacks(recorded)
        paths = {line.rsplit(" ", 1)[0] for line in lines}
        assert paths == {
            "loader;loader.fetch",
            "loader;loader.fetch;read",
            "loader;loader.fetch;decode",
        }
        for line in lines:
            assert int(line.rsplit(" ", 1)[1]) >= 0

    def test_stitch_dedups_by_span_id(self, recorded):
        doubled = stitch(recorded, recorded,
                         [span_to_json(s) for s in recorded])
        assert len(doubled) == len(recorded)


class TestLoaderIntegration:
    def test_traced_epoch_and_reconfigure_propagation(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        rec = TraceRecorder(proc="loader")
        loader = DataLoader(
            ListSource(blobs), plugin, batch_size=2, shuffle=False,
            graph=True, trace=rec,
        )
        plain = [b.tobytes() for b, _ in loader.batches(0)]
        names = {s.name for s in rec.spans()}
        assert "loader.fetch" in names and "decode" in names
        n_before = len(rec.spans())
        # reconfigure() swaps the executor but keeps the pipeline: the
        # recorder must survive and keep tracing
        loader.reconfigure(num_workers=2)
        assert loader.pipeline.trace is rec
        traced_rows = [b.tobytes() for b, _ in loader.batches(0)]
        assert len(rec.spans()) > n_before
        # tracing observes, never steers
        assert traced_rows == plain

    @pytest.mark.parametrize("batched", [False, True])
    def test_every_stage_spans_under_loader_fetch(
        self, deepcam_blobs, batched
    ):
        """One stage walker: stages after decode keep their spans in a
        batched epoch, under a root keyed by group size."""
        plugin, blobs = deepcam_blobs
        rec = TraceRecorder(proc="loader")
        loader = DataLoader(
            ListSource(blobs[:4]), plugin, batch_size=2, shuffle=False,
            extra_ops=[RandomFlipOp(0.5)], trace=rec, batched_fetch=batched,
        )
        list(loader.batches(0))
        roots = [s for s in rec.spans() if s.name == "loader.fetch"]
        expected = (
            [{"epoch": 0, "batch": 2}] * 2 if batched
            else [{"index": i, "epoch": 0} for i in range(4)]
        )
        assert [r.meta for r in roots] == expected
        for root in roots:
            children = [s.name for s in rec.spans_for(root.trace_id)
                        if s.parent_id == root.span_id]
            assert children == ["read", "decode", "augment"]

    @pytest.mark.parametrize("batched", [False, True])
    def test_quarantined_failure_links_to_its_trace(
        self, deepcam_blobs, batched
    ):
        plugin, blobs = deepcam_blobs
        bad = list(blobs[:4])
        bad[1] = b"not a container"
        rec = TraceRecorder(proc="loader")
        loader = DataLoader(
            ListSource(bad), plugin, batch_size=2, shuffle=False,
            bad_sample_policy="skip", trace=rec, batched_fetch=batched,
        )
        list(loader.batches(0))
        (entry,) = loader.quarantine.entries
        root = [s for s in rec.spans() if s.name == "loader.fetch"][
            0 if batched else 1
        ]
        assert entry.trace_id == root.trace_id

    def test_untraced_loader_records_nothing(self, deepcam_blobs):
        plugin, blobs = deepcam_blobs
        loader = DataLoader(
            ListSource(blobs), plugin, batch_size=2, shuffle=False,
            graph=True,
        )
        for _ in loader.batches(0):
            pass
        assert loader.trace is None


class TestFailureLinkage:
    def test_failed_item_inherits_the_exception_trace_id(self):
        rec = TraceRecorder()
        try:
            with rec.trace("loader.fetch", index=5):
                raise IOError("disk gone")
        except IOError as exc:
            item = FailedItem(index=5, error=exc)
        tid = rec.spans()[-1].trace_id
        assert item.trace_id == tid
        doc = item.to_json()
        assert int(doc["trace_id"], 16) == tid

    def test_failed_item_untraced_serializes_null(self):
        item = FailedItem(index=1, error=ValueError("x"))
        assert item.trace_id == 0
        assert item.to_json()["trace_id"] is None

    def test_quarantine_entry_round_trips_the_trace_id(self):
        rec = TraceRecorder()
        log = QuarantineLog()
        try:
            with rec.trace("loader.fetch"):
                raise ValueError("bad blob")
        except ValueError as exc:
            entry = log.record(3, 0, exc, "skipped")
        tid = rec.spans()[-1].trace_id
        assert entry.trace_id == tid
        dumped = log.to_json()
        assert int(dumped[0]["trace_id"], 16) == tid
        err = ValueError("untraced")
        assert log.record(4, 0, err, "skipped").to_json()["trace_id"] is None


class _StubLoader:
    def __init__(self):
        self.stats = StatsRegistry()
        self.calls = []

        class _Ex:
            num_workers = 2
            prefetch_depth = 2

        self.executor = _Ex()

    def reconfigure(self, num_workers=None, prefetch_depth=None):
        self.calls.append((num_workers, prefetch_depth))
        if num_workers is not None:
            self.executor.num_workers = num_workers
        if prefetch_depth is not None:
            self.executor.prefetch_depth = prefetch_depth


class TestControllerEvidence:
    def _starved(self):
        return EpochObservation(
            epoch_s=1.0, starvation=0.5, occupancy=0.9,
            num_workers=2, prefetch_depth=2,
        )

    def test_actions_cite_the_slowest_exemplar(self):
        rec = TraceRecorder()
        with rec.trace("loader.fetch", index=9):
            with span("decode"):
                pass
        tid = rec.spans()[-1].trace_id
        ctrl = AdaptiveController(_StubLoader(), trace=rec)
        action = ctrl.observe(self._starved())
        assert action.startswith("grow num_workers 2 -> 4")
        assert f"[exemplar {tid:x}:" in action
        assert "decode" in action

    def test_hold_and_traceless_actions_are_unchanged(self):
        ctrl = AdaptiveController(_StubLoader())
        action = ctrl.observe(self._starved())
        assert action == "grow num_workers 2 -> 4"
        rec = TraceRecorder()  # attached but empty: no citation
        ctrl2 = AdaptiveController(_StubLoader(), trace=rec)
        assert ctrl2.observe(self._starved()) == "grow num_workers 2 -> 4"


class TestCli:
    def _record_file(self, tmp_path, blobs):
        from repro.storage import tfrecord

        path = tmp_path / "data.rec"
        with tfrecord.TfRecordWriter(path) as w:
            for b in blobs:
                w.write(b)
        return path

    def test_trace_record_export_top(self, tmp_path, capsys, deepcam_blobs):
        from repro.cli import main

        _, blobs = deepcam_blobs
        rec_file = self._record_file(tmp_path, blobs)
        trace_file = tmp_path / "trace.json"
        assert main([
            "trace", "record", "--workload", "deepcam",
            "--input", str(rec_file), "--output", str(trace_file),
        ]) == 0
        doc = json.loads(trace_file.read_text())
        assert doc["schema"] == 1 and doc["spans"]
        capsys.readouterr()

        for fmt, needle in (
            ("tree", "loader.fetch"),
            ("folded", "loader;loader.fetch"),
        ):
            assert main([
                "trace", "export", "--trace", str(trace_file),
                "--format", fmt,
            ]) == 0
            assert needle in capsys.readouterr().out

        chrome_out = tmp_path / "chrome.json"
        assert main([
            "trace", "export", "--trace", str(trace_file),
            "--format", "chrome", "--output", str(chrome_out),
        ]) == 0
        events = json.loads(chrome_out.read_text())
        assert any(e["ph"] == "X" for e in events)
        capsys.readouterr()

        assert main([
            "trace", "top", "--trace", str(trace_file), "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(r["name"] == "loader.fetch" for r in rows)

    def test_stats_all_merged_document(self, tmp_path, capsys,
                                       deepcam_blobs):
        from repro.cli import main

        _, blobs = deepcam_blobs
        rec_file = self._record_file(tmp_path, blobs)
        assert main([
            "stats", "--input", str(rec_file), "--all",
            "--workload", "deepcam", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        # stable key schema: every subsystem key present, null when
        # not probed
        for key in ("loader", "pipeline", "tiers", "remote", "cluster",
                    "ingest"):
            assert key in doc
        assert doc["samples"]["n"] == len(blobs)
        assert doc["loader"]["loader.epoch"]["count"] == 1
        assert any(k.startswith("pipeline.") for k in doc["pipeline"])
        assert doc["remote"] is None and doc["cluster"] is None
        assert doc["tiers"] is None and doc["ingest"] is None
