"""Differential fuzzing: ≥1000 structured cases per codec, every run.

This is the acceptance gate the kit exists for: every delta decode
implementation (loop reference-from-docs, production loop, vectorized)
and every LUT decode path must agree bit-for-bit on
1000+ fuzzer-generated samples per codec, every tier-1 run.  The crash
corpus (``tests/crashes/``) is replayed too, so past failures stay fixed.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.conformance import fuzz, replay_crashes
from repro.conformance.fuzzer import (
    DELTA_KINDS,
    LUT_KINDS,
    gen_delta_case,
    gen_lut_case,
    save_crash,
)
from repro.core.encoding.delta import DeltaCodecConfig
from repro.util.rng import make_rng

CRASH_DIR = Path(__file__).parent / "crashes"

#: acceptance criterion: at least this many fuzz samples per codec
N_SAMPLES = 1000


def _fail_detail(report):
    return "; ".join(
        [str(m) for m in report.mismatches[:5]]
        + [c["error"] for c in report.crashes[:5]]
    )


def test_delta_differential_1000_samples():
    report = fuzz("delta", samples=N_SAMPLES, seed=42)
    assert report.cases >= N_SAMPLES
    assert report.ok, _fail_detail(report)
    # the structured corpus must actually exercise every kind
    assert set(report.by_kind) == set(DELTA_KINDS)


def test_lut_differential_1000_samples():
    report = fuzz("lut", samples=N_SAMPLES, seed=42)
    assert report.cases >= N_SAMPLES
    assert report.ok, _fail_detail(report)
    assert set(report.by_kind) == set(LUT_KINDS)


def test_crash_corpus_replays_clean():
    """Every saved reproducer in tests/crashes/ must pass forever."""
    report = replay_crashes(CRASH_DIR)
    assert report.ok, _fail_detail(report)


class TestGenerators:
    def test_deterministic_from_seed(self):
        for gen in (gen_delta_case, gen_lut_case):
            a_data, a_cfg, a_kind = gen(make_rng(9))
            b_data, b_cfg, b_kind = gen(make_rng(9))
            assert a_kind == b_kind and a_cfg == b_cfg
            assert a_data.tobytes() == b_data.tobytes()

    def test_delta_kinds_produce_targeted_structure(self):
        rng = make_rng(0)
        seen = {}
        for _ in range(300):
            img, cfg, kind = gen_delta_case(rng)
            seen[kind] = seen.get(kind, 0) + 1
            assert img.dtype == np.float32 and img.ndim == 2
            if kind == "specials":
                assert not np.isfinite(img).all()
            if kind == "denormal":
                finite = img[np.isfinite(img) & (img != 0)]
                if finite.size:
                    assert (
                        np.abs(finite).max()
                        < np.finfo(np.float32).tiny * 1e4
                    )
        assert set(seen) == set(DELTA_KINDS)

    def test_lut_kinds_produce_targeted_structure(self):
        rng = make_rng(0)
        seen = set()
        for _ in range(300):
            vol, cfg, kind = gen_lut_case(rng)
            seen.add(kind)
            assert vol.ndim >= 2
            if kind == "single_voxel":
                assert all(d == 1 for d in vol.shape[1:])
            if kind == "flat":
                assert np.unique(vol).size == 1
            if kind == "split":
                assert cfg.max_groups_per_table <= 16
        assert seen == set(LUT_KINDS)

    def test_budget_mode_stops_early(self):
        report = fuzz("lut", budget_s=0.2, seed=0)
        assert report.cases > 0
        assert report.elapsed_s < 5.0

    def test_requires_a_budget(self):
        with pytest.raises(ValueError, match="samples or budget_s"):
            fuzz("delta")

    def test_rejects_unknown_codec(self):
        with pytest.raises(ValueError, match="codec"):
            fuzz("gzip", samples=1)


class TestCrashCorpus:
    def test_save_and_replay_roundtrip(self, tmp_path):
        img, cfg, kind = gen_delta_case(make_rng(5))
        path = save_crash(tmp_path, "delta", img, cfg, kind=kind,
                          seed=5, case=0, detail="unit test")
        assert path.is_file()
        report = replay_crashes(tmp_path)
        assert report.cases == 1
        assert report.ok

    def test_save_is_idempotent_by_content(self, tmp_path):
        img, cfg, kind = gen_delta_case(make_rng(5))
        p1 = save_crash(tmp_path, "delta", img, cfg, kind=kind,
                        seed=5, case=0)
        p2 = save_crash(tmp_path, "delta", img, cfg, kind=kind,
                        seed=5, case=99)
        assert p1 == p2
        assert len(list(tmp_path.glob("*.npz"))) == 1

    def test_empty_corpus_replays_clean(self, tmp_path):
        report = replay_crashes(tmp_path)
        assert report.cases == 0 and report.ok

    def test_mismatch_is_saved_and_replay_fails(self, tmp_path, monkeypatch):
        """A diverging implementation produces a reproducer, and the
        reproducer keeps failing on replay until the codec is fixed."""
        import repro.conformance.differential as diff

        def bad_decode(enc, out=None):
            res = diff.decode_image(enc, out=out)
            res.view(np.uint16).reshape(-1)[0] ^= 1
            return res

        monkeypatch.setattr(diff, "decode_image_fast", bad_decode)
        report = fuzz("delta", samples=3, seed=1, crash_dir=tmp_path)
        assert not report.ok
        assert report.saved and list(tmp_path.glob("*.npz"))
        replay = replay_crashes(tmp_path)
        assert not replay.ok and replay.mismatches

    def test_crash_exception_is_recorded_serializably(
        self, tmp_path, monkeypatch
    ):
        """A decode-path crash surfaces as a FailedItem-style JSON record
        with repr + traceback, and is saved for replay."""
        import repro.conformance.differential as diff

        def explode(enc, out=None):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(diff, "decode_image_fast", explode)
        report = fuzz("delta", samples=2, seed=1, crash_dir=tmp_path)
        assert report.crashes
        rec = report.crashes[0]
        assert "kernel exploded" in rec["error"]
        assert "explode" in rec["traceback"]
        assert report.saved

    def test_replay_rebuilds_exact_config(self, tmp_path):
        cfg = DeltaCodecConfig(block_size=2, mantissa_bits=3,
                               quality_gate=False)
        img = np.linspace(0, 1, 24, dtype=np.float32).reshape(2, 12)
        save_crash(tmp_path, "delta", img, cfg, kind="manual",
                   seed=None, case=0)
        from repro.conformance.fuzzer import _load_crash

        codec, data, meta = _load_crash(next(tmp_path.glob("*.npz")))
        assert codec == "delta"
        assert data.tobytes() == img.tobytes()
        assert meta["config"]["block_size"] == 2
        assert meta["config"]["mantissa_bits"] == 3
        assert meta["config"]["quality_gate"] is False
