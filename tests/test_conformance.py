"""Conformance kit: reference decoders + differential harness.

The reference decoders are independent, loop-based re-implementations of
the format docs; these tests pin them bit-for-bit against the production
decode paths and prove the harness actually *catches* divergence (a
harness that can't fail is no safety net).
"""

import numpy as np
import pytest

from repro.conformance import (
    ConformanceError,
    check_delta_case,
    check_lut_case,
    decode_delta_reference,
    decode_lut_reference,
    delta_decode_outputs,
    lut_decode_outputs,
)
from repro.conformance.differential import (
    CaseReport,
    Mismatch,
    compare_against,
    delta_config_from_dict,
    delta_config_to_dict,
    lut_config_from_dict,
    lut_config_to_dict,
)
from repro.core.encoding.delta import DeltaCodecConfig, decode_image, encode_image
from repro.core.encoding.lut import LutCodecConfig, decode_sample, encode_sample
from repro.util.rng import make_rng


def _smooth(rng, H, W, scale=1e-3):
    base = rng.normal(0.0, 1.0, (H, 1)).astype(np.float32)
    return base + np.cumsum(
        rng.normal(0, scale, (H, W)).astype(np.float32), axis=1
    )


class TestDeltaReference:
    def test_matches_loop_decoder_on_smooth(self):
        img = _smooth(make_rng(0), 12, 40)
        enc = encode_image(img)
        ref = decode_delta_reference(enc)
        assert ref.dtype == np.float16
        assert ref.tobytes() == decode_image(enc).tobytes()

    def test_matches_on_dataset_sample(self, deepcam_sample):
        for c in range(3):  # a few channels keep the loop decoder cheap
            enc = encode_image(deepcam_sample.data[c])
            assert (
                decode_delta_reference(enc).tobytes()
                == decode_image(enc).tobytes()
            )

    @pytest.mark.parametrize("mantissa_bits", [1, 2, 4, 6])
    def test_matches_across_bit_splits(self, mantissa_bits):
        img = _smooth(make_rng(3), 6, 33, scale=1e-2)
        cfg = DeltaCodecConfig(block_size=8, mantissa_bits=mantissa_bits)
        enc = encode_image(img, cfg)
        assert (
            decode_delta_reference(enc).tobytes()
            == decode_image(enc).tobytes()
        )

    def test_nan_inf_bit_patterns_agree(self):
        img = _smooth(make_rng(4), 4, 20, scale=0.01)
        img[0, 3] = np.nan
        img[1, 0] = np.inf
        img[2, -1] = -np.inf
        enc = encode_image(img)
        ref = decode_delta_reference(enc)
        # compare raw bits: NaN != NaN under ==, but the bytes must match
        assert ref.tobytes() == decode_image(enc).tobytes()

    def test_rejects_unknown_line_mode(self):
        enc = encode_image(_smooth(make_rng(5), 2, 8))
        enc.line_modes = enc.line_modes.copy()
        enc.line_modes[0] = 7
        with pytest.raises(ValueError, match="unknown line mode"):
            decode_delta_reference(enc)


class TestLutReference:
    def test_matches_gather_decoder(self, cosmo_sample):
        enc = encode_sample(cosmo_sample.data)
        ref = decode_lut_reference(enc)
        assert ref.tobytes() == decode_sample(enc).tobytes()

    def test_matches_with_dtype_override(self):
        vol = make_rng(1).integers(0, 50, (2, 5, 5)).astype(np.int16)
        enc = encode_sample(vol)
        ref = decode_lut_reference(enc, dtype=np.float16)
        assert ref.dtype == np.float16
        assert ref.tobytes() == decode_sample(enc, dtype=np.float16).tobytes()

    def test_multi_table_split(self):
        vol = make_rng(2).integers(0, 100, (2, 6, 6)).astype(np.int16)
        enc = encode_sample(vol, LutCodecConfig(max_groups_per_table=8))
        assert len(enc.tables) > 1
        assert decode_lut_reference(enc).tobytes() == (
            decode_sample(enc).tobytes()
        )

    def test_rejects_out_of_range_key(self):
        vol = make_rng(3).integers(0, 9, (2, 3, 3)).astype(np.int16)
        enc = encode_sample(vol)
        enc.tables[0].keys = enc.tables[0].keys.copy()
        enc.tables[0].keys[0] = 200  # beyond n_groups
        with pytest.raises(ValueError, match="out of range"):
            decode_lut_reference(enc)

    def test_rejects_key_count_mismatch(self):
        vol = make_rng(4).integers(0, 9, (2, 3, 3)).astype(np.int16)
        enc = encode_sample(vol)
        enc.tables[0].keys = enc.tables[0].keys[:-1]
        with pytest.raises(ValueError, match="keys"):
            decode_lut_reference(enc)


class TestDifferentialHarness:
    def test_delta_outputs_cover_all_paths(self):
        enc = encode_image(_smooth(make_rng(6), 6, 30))
        outs = delta_decode_outputs(enc)
        assert set(outs) == {"reference", "loop", "vectorized"}
        assert not compare_against(outs)

    def test_lut_outputs_cover_all_paths(self):
        vol = make_rng(7).integers(0, 30, (4, 4, 4, 4)).astype(np.int16)
        outs = lut_decode_outputs(encode_sample(vol))
        assert set(outs) == {"reference", "gather"}
        assert not compare_against(outs)

    def test_delta_case_passes(self, deepcam_sample):
        report = check_delta_case(deepcam_sample.data[0])
        assert report.ok
        report.raise_if_failed()  # no-op when clean

    def test_lut_case_passes(self, cosmo_sample):
        assert check_lut_case(cosmo_sample.data).ok

    def test_compare_catches_single_bit_flip(self):
        enc = encode_image(_smooth(make_rng(8), 4, 20))
        outs = delta_decode_outputs(enc)
        bad = outs["vectorized"].copy()
        bad.view(np.uint16).reshape(-1)[5] ^= 1
        outs["vectorized"] = bad
        mismatches = compare_against(outs)
        assert len(mismatches) == 1
        assert mismatches[0].impl == "vectorized"
        assert "1/80 elements differ" in mismatches[0].detail

    def test_compare_catches_shape_and_dtype_drift(self):
        ref = np.zeros((2, 3), dtype=np.float16)
        assert compare_against(
            {"reference": ref, "x": ref.astype(np.float32)}
        )[0].impl == "x"
        assert compare_against(
            {"reference": ref, "x": np.zeros((3, 2), dtype=np.float16)}
        )[0].impl == "x"

    def test_report_raises_with_context(self):
        report = CaseReport(codec="delta", impls=["a", "b"])
        report.mismatches.append(Mismatch("b", "a", "payload differs"))
        assert not report.ok
        with pytest.raises(ConformanceError, match="payload differs"):
            report.raise_if_failed()

    def test_broken_vectorized_decoder_is_caught(self, monkeypatch):
        """End-to-end: a wrong implementation fails the case report."""
        import repro.conformance.differential as diff

        def bad_decode(enc, out=None):
            res = diff.decode_image(enc, out=out)
            res.view(np.uint16).reshape(-1)[0] ^= 0x8000
            return res

        monkeypatch.setattr(diff, "decode_image_fast", bad_decode)
        report = check_delta_case(_smooth(make_rng(9), 4, 16))
        assert not report.ok
        assert any(m.impl == "vectorized" for m in report.mismatches)


class TestConfigRoundTrip:
    def test_delta_config(self):
        cfg = DeltaCodecConfig(block_size=8, mantissa_bits=2,
                               quality_gate=False)
        assert delta_config_from_dict(delta_config_to_dict(cfg)) == cfg

    def test_lut_config(self):
        cfg = LutCodecConfig(max_groups_per_table=12, value_dtype="int32")
        assert lut_config_from_dict(lut_config_to_dict(cfg)) == cfg
