"""Tests for the command-line tools."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.encoding import container
from repro.storage import tfrecord


class TestGenerate:
    def test_cosmoflow_base(self, tmp_path, capsys):
        out = tmp_path / "c.tfr"
        assert main(["generate", "--workload", "cosmoflow", "--count", "2",
                     "--size", "8", "--output", str(out)]) == 0
        records = tfrecord.read_records(out)
        assert len(records) == 2
        codec, payload, label, _ = container.unpack_sample(records[0])
        assert codec == "raw" and payload.shape == (4, 8, 8, 8)

    def test_cosmoflow_plugin(self, tmp_path):
        out = tmp_path / "cp.tfr"
        main(["generate", "--workload", "cosmoflow", "--representation",
              "plugin", "--count", "1", "--size", "8", "--output", str(out)])
        codec, _, _, _ = container.unpack_sample(
            tfrecord.read_records(out)[0]
        )
        assert codec == "lut"

    def test_deepcam_plugin_gzip(self, tmp_path):
        out = tmp_path / "d.tfr.gz"
        main(["generate", "--workload", "deepcam", "--representation",
              "plugin", "--count", "1", "--size", "16", "--gzip",
              "--output", str(out)])
        records = tfrecord.read_records(out, compression="gzip")
        codec, _, _, _ = container.unpack_sample(records[0])
        assert codec == "delta"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.tfr", tmp_path / "b.tfr"
        for out in (a, b):
            main(["generate", "--workload", "cosmoflow", "--count", "1",
                  "--size", "8", "--seed", "5", "--output", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestInspectAnalyzeBench:
    @pytest.fixture()
    def record_file(self, tmp_path):
        out = tmp_path / "c.tfr"
        main(["generate", "--workload", "cosmoflow", "--count", "2",
              "--size", "8", "--output", str(out)])
        return out

    def test_inspect(self, record_file, capsys):
        assert main(["inspect", "--input", str(record_file)]) == 0
        text = capsys.readouterr().out
        assert "raw" in text and "total: 2 samples" in text

    def test_analyze(self, record_file, capsys):
        assert main(["analyze", "--input", str(record_file)]) == 0
        text = capsys.readouterr().out
        assert "unique values" in text and "yes" in text

    def test_analyze_rejects_encoded(self, tmp_path):
        out = tmp_path / "cp.tfr"
        main(["generate", "--workload", "cosmoflow", "--representation",
              "plugin", "--count", "1", "--size", "8", "--output", str(out)])
        with pytest.raises(SystemExit):
            main(["analyze", "--input", str(out)])

    def test_bench(self, record_file, capsys):
        assert main(["bench", "--workload", "cosmoflow",
                     "--representation", "base", "--input",
                     str(record_file)]) == 0
        assert "samples/s" in capsys.readouterr().out

    def test_bench_json(self, record_file, capsys):
        import json

        assert main(["bench", "--workload", "cosmoflow",
                     "--representation", "base", "--input",
                     str(record_file), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["samples"] == 2
        assert data["samples_per_s"] > 0
        assert data["decoded_mb_per_s"] > 0

    def test_unknown_representation(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "--workload", "cosmoflow", "--representation",
                  "nope", "--input", "x"])


class TestStats:
    def test_delta_stats(self, tmp_path, capsys):
        out = tmp_path / "d.tfr"
        main(["generate", "--workload", "deepcam", "--representation",
              "plugin", "--count", "2", "--size", "16", "--output",
              str(out)])
        assert main(["stats", "--input", str(out)]) == 0
        text = capsys.readouterr().out
        assert "delta" in text and "vs fp16" in text

    def test_lut_stats(self, tmp_path, capsys):
        out = tmp_path / "c.tfr"
        main(["generate", "--workload", "cosmoflow", "--representation",
              "plugin", "--count", "1", "--size", "16", "--output",
              str(out)])
        assert main(["stats", "--input", str(out)]) == 0
        text = capsys.readouterr().out
        assert "lut" in text and "groups" in text

    def test_raw_stats(self, tmp_path, capsys):
        out = tmp_path / "r.tfr"
        main(["generate", "--workload", "cosmoflow", "--count", "1",
              "--size", "8", "--output", str(out)])
        assert main(["stats", "--input", str(out)]) == 0
        assert "raw" in capsys.readouterr().out

    def test_stats_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "d.tfr"
        main(["generate", "--workload", "deepcam", "--representation",
              "plugin", "--count", "2", "--size", "16", "--output",
              str(out)])
        capsys.readouterr()  # drop the generate banner
        assert main(["stats", "--input", str(out), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["samples"]) == 2
        rec = data["samples"][0]
        assert rec["codec"] == "delta"
        assert rec["compression_vs_fp16"] > 0.0
        assert rec["lines_const"] + rec["lines_delta"] + rec["lines_raw"] > 0


class TestTune:
    def test_tune_human_output(self, capsys):
        assert main(["tune", "--machine", "summit", "--workload",
                     "cosmoflow"]) == 0
        text = capsys.readouterr().out
        assert "converged" in text
        assert "best:" in text and "paper:" in text
        assert "bottleneck" in text

    def test_tune_json(self, capsys):
        import json

        assert main(["tune", "--machine", "cori-a100", "--workload",
                     "deepcam", "--json", "--top", "3", "--seed", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["machine"] == "Cori-A100"
        assert data["converged"] is True
        assert len(data["trials"]) == 3
        assert data["best"]["prediction_error"] < 0.15
        assert data["paper_simulated_samples_per_s"] > 0

    def test_tune_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            main(["tune", "--machine", "frontier", "--workload",
                  "cosmoflow"])


class TestServeFetch:
    def test_serve_fetch_end_to_end(self, tmp_path, capsys):
        import json
        import threading
        import time

        out = tmp_path / "d.tfr"
        assert main(["generate", "--workload", "deepcam",
                     "--representation", "plugin", "--count", "4",
                     "--size", "16", "--output", str(out)]) == 0
        capsys.readouterr()  # drop generate output

        rc = {}

        def serve():
            rc["serve"] = main([
                "serve", "--input", str(out), "--world-size", "2",
                "--duration-s", "3", "--json",
            ])

        t = threading.Thread(target=serve)
        t.start()
        try:
            # the startup JSON line carries the ephemeral port
            port, lines = None, []
            deadline = time.monotonic() + 5.0
            while port is None and time.monotonic() < deadline:
                lines += capsys.readouterr().out.splitlines()
                for line in lines:
                    obj = json.loads(line or "{}")
                    if "port" in obj:
                        port = obj["port"]
                time.sleep(0.05)
            assert port is not None, f"no startup line in {lines!r}"

            assert main(["fetch", "--port", str(port), "--health",
                         "--json"]) == 0
            health = json.loads(capsys.readouterr().out)
            assert health["status"] == "ok"

            assert main(["fetch", "--port", str(port), "--indices", "0,2",
                         "--verify", "--json"]) == 0
            fetched = json.loads(capsys.readouterr().out)
            assert fetched["samples"] == 2 and fetched["corrupt"] == 0

            assert main(["fetch", "--port", str(port), "--epoch", "0",
                         "--rank", "1", "--json"]) == 0
            shard = json.loads(capsys.readouterr().out)
            assert shard["samples"] == 2  # 4 samples over 2 ranks
            assert shard["rank"] == 1 and shard["epoch"] == 0
        finally:
            t.join(timeout=10.0)
        assert rc.get("serve") == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["reads"] >= 4 and summary["errors"] == 0


class TestTiers:
    @pytest.fixture()
    def record_file(self, tmp_path):
        out = tmp_path / "t.tfr"
        main(["generate", "--workload", "deepcam", "--representation",
              "plugin", "--count", "8", "--size", "16", "--output",
              str(out)])
        return out

    def test_status_json_reports_hit_rates(self, record_file, capsys):
        import json

        capsys.readouterr()
        assert main(["tiers", "status", "--input", str(record_file),
                     "--epochs", "3", "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert {lv["name"] for lv in status["levels"]} == {"ram", "nvme"}
        for lv in status["levels"]:
            assert "hit_rate" in lv and "budget_bytes" in lv
        assert status["hit_rate"] > 0.0  # promoted epochs actually hit
        assert status["promotions"] > 0
        assert status["modeled_read_s"] > 0.0

    def test_status_human_output(self, record_file, capsys):
        capsys.readouterr()
        assert main(["tiers", "status", "--input", str(record_file)]) == 0
        text = capsys.readouterr().out
        assert "hit rate" in text and "ram" in text and "nvme" in text
        assert "promotions" in text

    def test_plan_lists_moves(self, record_file, capsys):
        import json

        capsys.readouterr()
        assert main(["tiers", "plan", "--input", str(record_file),
                     "--epochs", "1", "--json"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert set(plan["counts"]) == {"promote", "demote", "evict"}
        assert plan["counts"]["promote"] > 0
        assert all({"key", "kind", "src", "dst", "bytes"} <= set(m)
                   for m in plan["moves"])

    def test_migrate_applies_and_reports(self, record_file, capsys):
        import json

        capsys.readouterr()
        assert main(["tiers", "migrate", "--input", str(record_file),
                     "--epochs", "1", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["migrated"].get("promote", 0) > 0
        assert out["status"]["promotions"] > 0

    def test_nvme_dir_persists_replicas(self, record_file, tmp_path, capsys):
        nvme = tmp_path / "nvme"
        capsys.readouterr()
        assert main(["tiers", "status", "--input", str(record_file),
                     "--ram-mb", "0", "--nvme-dir", str(nvme),
                     "--policy", "cost", "--json"]) == 0
        assert list(nvme.glob("*.blob"))  # staged replicas are real files

    def test_rejects_unknown_machine(self, record_file):
        with pytest.raises(SystemExit):
            main(["tiers", "status", "--input", str(record_file),
                  "--machine", "frontier"])

    def test_stats_tier_probe(self, record_file, capsys):
        import json

        capsys.readouterr()
        assert main(["stats", "--input", str(record_file), "--tiers",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tiers"]["hit_rate"] > 0.0
        assert len(data["samples"]) == 8


class TestGraphCommand:
    @pytest.fixture()
    def cosmo_file(self, tmp_path):
        out = tmp_path / "c.tfr"
        main(["generate", "--workload", "cosmoflow", "--representation",
              "plugin", "--count", "3", "--size", "8", "--output",
              str(out)])
        return out

    @pytest.fixture()
    def deepcam_file(self, tmp_path):
        out = tmp_path / "d.tfr"
        main(["generate", "--workload", "deepcam", "--representation",
              "plugin", "--count", "6", "--size", "16", "--output",
              str(out)])
        return out

    def test_show_lists_stages_and_edges(self, cosmo_file, capsys):
        capsys.readouterr()
        assert main(["graph", "show", "--workload", "cosmoflow",
                     "--input", str(cosmo_file)]) == 0
        text = capsys.readouterr().out
        assert "decode" in text and "log1p" in text and "fp16" in text
        assert "edges:" in text and "->" in text

    def test_show_json(self, cosmo_file, capsys):
        import json

        capsys.readouterr()
        assert main(["graph", "show", "--workload", "cosmoflow",
                     "--input", str(cosmo_file), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        names = [n["name"] for n in data["nodes"]]
        assert "read" in names and "log1p" in names

    def test_optimize_check_cosmoflow(self, cosmo_file, capsys):
        capsys.readouterr()
        assert main(["graph", "optimize", "--workload", "cosmoflow",
                     "--input", str(cosmo_file), "--check"]) == 0
        text = capsys.readouterr().out
        assert "bit-identical" in text
        assert "naive/optimized" in text
        assert "fused" in text  # pass trace mentions the fusion

    def test_optimize_check_deepcam_holdout(self, deepcam_file, capsys):
        capsys.readouterr()
        assert main(["graph", "optimize", "--workload", "deepcam",
                     "--input", str(deepcam_file), "--holdout", "0.5",
                     "--check"]) == 0
        text = capsys.readouterr().out
        assert "bit-identical" in text
        assert "holdout" in text  # filter shows up in the trace

    def test_optimize_json_has_cost_terms(self, cosmo_file, capsys):
        import json

        capsys.readouterr()
        assert main(["graph", "optimize", "--workload", "cosmoflow",
                     "--input", str(cosmo_file), "--check", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["check"]["ok"] is True
        assert data["check"]["mismatches"] == []
        naive = data["naive"]["cost_terms"]
        opt = data["optimized"]["cost_terms"]
        assert opt["extra_passes"] < naive["extra_passes"]
        assert data["optimized"]["optimized"] is True

    def test_holdout_rejected_for_cosmoflow(self, cosmo_file):
        with pytest.raises(SystemExit):
            main(["graph", "optimize", "--workload", "cosmoflow",
                  "--input", str(cosmo_file), "--holdout", "0.5"])

    def test_stats_pipeline_counters(self, cosmo_file, capsys):
        import json

        capsys.readouterr()
        assert main(["stats", "--input", str(cosmo_file), "--pipeline",
                     "--workload", "cosmoflow", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        stages = data["pipeline"]
        assert "pipeline.read" in stages and "pipeline.decode" in stages
        assert stages["pipeline.decode"]["count"] == 3
        assert stages["pipeline.decode"]["seconds"] >= 0.0

    def test_stats_pipeline_needs_workload(self, cosmo_file):
        with pytest.raises(SystemExit):
            main(["stats", "--input", str(cosmo_file), "--pipeline"])
