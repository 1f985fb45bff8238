"""The codec contract: one production path per codec and the rules it keeps.

Each codec ships one production encoder/decoder pair
(:mod:`repro.core.encoding.delta`, :mod:`repro.core.encoding.lut`) and is
held to the line-at-a-time references in :mod:`repro.conformance`.  Every
rule runs for the delta codec and for the LUT codec, plain and with the
fused ``log1p`` + FP16 chain folded into its tables:

* the production decoder is the reference decoder, bit for bit;
* the production encoders are the reference encoders, byte for byte —
  delta under Hypothesis-drawn images, LUT (packed-key sort against the
  row-wise ``np.unique``) under Hypothesis-drawn volumes, as the same
  container blob;
* the round trip stays within the documented bound — LUT lossless, delta
  within its quality gate;
* a part decodes alike alone and within its sample — a delta channel
  within ``decode_images`` (line independence), a LUT table within its
  volume;
* malformed tables raise, and a malformed line table fails only its own
  slot of a plugin group;
* no ``RuntimeWarning`` is emitted, NaN/Inf/denormal inputs included.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.conformance import (
    decode_delta_reference,
    decode_lut_reference,
    encode_delta_reference,
    encode_lut_reference,
)
from repro.core.encoding import container
from repro.core.encoding.delta import (
    DeltaCodecConfig,
    decode_images,
    encode_image,
)
from repro.core.encoding.lut import (
    LutCodecConfig,
    LutEncodedSample,
    LutTable,
    apply_to_tables,
    decode_sample,
    encode_sample,
)
from repro.core.plugins import DeepcamDeltaPlugin
from repro.datasets import deepcam


def _smooth(rng, H, W, scale=1e-2):
    base = rng.normal(0.0, 1.0, (H, 1))
    return (base + np.cumsum(rng.normal(0, scale, (H, W)), axis=1)).astype(
        np.float32
    )


def _delta_cases():
    rng = np.random.default_rng(7)
    modes = np.empty((6, 96), dtype=np.float32)
    modes[0] = 5.0  # CONST
    modes[1] = np.cumsum(rng.normal(0, 0.01, 96)) + 1  # DELTA
    modes[2] = rng.standard_normal(96) * 10.0 ** rng.integers(-6, 6, 96)
    modes[3] = 0.0
    modes[4] = np.linspace(-1, 1, 96)
    modes[5] = rng.standard_normal(96)
    specials = _smooth(rng, 4, 80)
    specials[0, 10], specials[1, 20], specials[2, 79] = np.nan, np.inf, -np.inf
    extreme = (rng.choice([-1.0, 1.0], (3, 40))
               * 10.0 ** rng.uniform(3, 38, (3, 40))).astype(np.float32)
    return {
        "smooth": (_smooth(rng, 8, 130), DeltaCodecConfig()),
        "modes": (modes, DeltaCodecConfig()),
        "specials": (specials, DeltaCodecConfig()),
        "denormal": ((rng.normal(0, 1, (4, 33)) * 1e-40).astype(np.float32),
                     DeltaCodecConfig()),
        "extreme": (extreme, DeltaCodecConfig()),
        "width1": (rng.normal(0, 1, (5, 1)).astype(np.float32),
                   DeltaCodecConfig()),
        "split2": (_smooth(rng, 6, 33), DeltaCodecConfig(block_size=8,
                                                         mantissa_bits=2)),
        "nogate": (_smooth(rng, 6, 65, 0.1), DeltaCodecConfig(
            quality_gate=False)),
    }


def _lut_cases():
    rng = np.random.default_rng(8)
    return {
        "u8": (rng.integers(0, 5, (4, 8, 8, 8)), LutCodecConfig()),
        "u16": (rng.integers(0, 3000, (4, 7, 7, 7)), LutCodecConfig()),
        "split": (rng.integers(0, 200, (2, 6, 6)),
                  LutCodecConfig(max_groups_per_table=16)),
        "1d": (rng.integers(0, 50, (4, 12)), LutCodecConfig()),
        "voxel": (rng.integers(0, 9, (4, 1, 1, 1)), LutCodecConfig()),
    }


def _fold_log1p(enc):
    return apply_to_tables(
        enc, lambda v: np.log1p(v.astype(np.float32)), out_dtype=np.float16
    )


#: per codec: named ``(data, config)`` cases, and how to encode, decode
#: (production and reference) and what the round trip must give back
CODECS = {
    "delta": SimpleNamespace(
        cases=_delta_cases(),
        encode=encode_image,
        decode=lambda enc: decode_images([enc])[0],
        reference=decode_delta_reference,
    ),
    "lut": SimpleNamespace(
        cases={n: (v.astype(np.int16), c) for n, (v, c) in _lut_cases().items()},
        encode=encode_sample,
        decode=decode_sample,
        reference=decode_lut_reference,
        expect=lambda data: data,
    ),
    "lut-fused": SimpleNamespace(
        cases={n: (v.astype(np.int16), c) for n, (v, c) in _lut_cases().items()},
        encode=lambda data, cfg: _fold_log1p(encode_sample(data, cfg)),
        decode=lambda enc: decode_sample(enc, dtype=np.float16),
        reference=lambda enc: decode_lut_reference(enc, dtype=np.float16),
        expect=lambda data: np.log1p(data.astype(np.float32)).astype(
            np.float16
        ),
    ),
}


@pytest.fixture(params=sorted(CODECS))
def codec(request):
    return CODECS[request.param]


def _encoded(codec):
    return {name: (data, cfg, codec.encode(data, cfg))
            for name, (data, cfg) in codec.cases.items()}


def test_the_production_decoder_is_the_reference(codec):
    for name, (_, _, enc) in _encoded(codec).items():
        got, want = codec.decode(enc), codec.reference(enc)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


# -- the delta encoder against its reference --------------------------------

_DELTA_CONFIGS = (
    DeltaCodecConfig(),
    DeltaCodecConfig(block_size=1),
    DeltaCodecConfig(block_size=3, mantissa_bits=2),
    DeltaCodecConfig(block_size=16, mantissa_bits=6),
    DeltaCodecConfig(block_size=8, quality_gate=False),
    DeltaCodecConfig(block_size=4, max_literal_frac=0.25, rel_floor=0.0),
)


@st.composite
def _delta_inputs(draw):
    """An image whose width sits on the segment grid's edges, smooth,
    denormal or arbitrary, with NaN/Inf/out-of-FP16-range values."""
    cfg = draw(st.sampled_from(_DELTA_CONFIGS))
    B = cfg.block_size
    W = draw(st.sampled_from(sorted({1, 2, B, B + 1, B + 2, 2 * B + 1})))
    H = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["smooth", "denormal", "arbitrary"]))
    if kind == "arbitrary":
        img = draw(hnp.arrays(np.float32, (H, W), elements=st.floats(
            width=32, allow_nan=True, allow_infinity=True)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        img = _smooth(rng, H, W, draw(st.sampled_from([1e-3, 1e-1])))
        if kind == "denormal":
            img = (img * np.float32(1e-39)).astype(np.float32)
    for pos, value in draw(st.lists(st.tuples(
        st.integers(0, H * W - 1),
        st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 1e5, 1e-45]),
    ), max_size=3)):
        img.reshape(-1)[pos] = value
    return img, cfg


@given(_delta_inputs())
@settings(max_examples=150, deadline=None)
def test_the_delta_encoder_is_the_reference(case):
    img, cfg = case
    got, want = encode_image(img, cfg), encode_delta_reference(img, cfg)
    assert got.line_modes.tobytes() == want.line_modes.tobytes()
    assert got.line_offsets.tobytes() == want.line_offsets.tobytes()
    assert got.payload == want.payload


# -- the LUT encoder against its reference -----------------------------------

#: lanes that pack into one uint64 key, and the fallbacks (C=5 int16, C>=3
#: int32) that keep the row-wise sort
_LUT_DTYPES = (np.int16, np.uint8, np.int32)


@st.composite
def _lut_inputs(draw):
    """A small volume of C ∈ 1..5 channels whose values mix each dtype's
    extremes with a few small counts, split over many tables when
    ``max_groups_per_table`` is small."""
    dtype = np.dtype(draw(st.sampled_from(_LUT_DTYPES)))
    info = np.iinfo(dtype)
    alphabet = sorted({int(info.min), int(info.max), 0, 1, 2, 7,
                       -1 if info.min < 0 else 3})
    C = draw(st.integers(1, 5))
    spatial = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    data = draw(hnp.arrays(dtype, (C, *spatial),
                           elements=st.sampled_from(alphabet)))
    cfg = LutCodecConfig(max_groups_per_table=draw(
        st.sampled_from([1, 2, 3, 8, 1 << 16])))
    return data, cfg


@given(_lut_inputs())
@settings(max_examples=150, deadline=None)
def test_the_lut_encoder_is_the_reference(case):
    data, cfg = case
    label = np.zeros(1, dtype=np.int8)
    got, want = encode_sample(data, cfg), encode_lut_reference(data, cfg)
    assert container.pack_lut_sample(got, label) == (
        container.pack_lut_sample(want, label)
    )
    assert decode_sample(got).tobytes() == decode_lut_reference(got).tobytes()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fused = _fold_log1p(got)
    assert decode_sample(fused, dtype=np.float16).tobytes() == (
        decode_lut_reference(fused, dtype=np.float16).tobytes()
    )


def test_round_trip_within_the_documented_bound(codec):
    for name, (data, cfg, enc) in _encoded(codec).items():
        out = codec.decode(enc)
        if hasattr(codec, "expect"):  # LUT: lossless
            assert np.array_equal(out, codec.expect(data)), name
            continue
        if not cfg.quality_gate or not np.isfinite(data).all():
            continue
        scale = float(np.abs(data).max())
        sig = np.abs(data) > max(cfg.rel_floor * scale, 1e-4)  # FP16 normals
        sig &= np.abs(data) < 6e4  # and within FP16's range
        rel = np.abs(out.astype(np.float32) - data)[sig] / np.abs(data)[sig]
        # the encode gate plus one FP16 rounding
        assert rel.size == 0 or rel.max() <= cfg.rel_tol + 1e-3, name


# -- parts decode alike alone and together ------------------------------------

def _table_alone(enc: LutEncodedSample, t: LutTable) -> LutEncodedSample:
    """One table of ``enc`` as a sample covering just its region."""
    shape = (enc.shape[0],) + tuple(hi - lo for lo, hi in t.region)
    region = tuple((0, hi - lo) for lo, hi in t.region)
    return LutEncodedSample(shape=shape, tables=[LutTable(region, t.keys,
                                                          t.values)],
                            dtype=enc.dtype)


def test_a_part_decodes_alike_alone_and_within_its_sample(codec):
    if codec is CODECS["delta"]:
        rng = np.random.default_rng(3)
        encs = [encode_image(codec.cases["modes"][0])] + [
            encode_image(_smooth(rng, 6, 96)) for _ in range(3)
        ]
        whole = decode_images(encs)
        for c, enc in enumerate(encs):
            assert whole[c].tobytes() == decode_images([enc])[0].tobytes()
        return
    for name, (_, _, enc) in _encoded(codec).items():
        whole = codec.decode(enc)
        for t in enc.tables:
            part = codec.decode(_table_alone(enc, t))
            region = (slice(None),) + tuple(slice(lo, hi) for lo, hi in t.region)
            assert whole[region].tobytes() == part.tobytes(), name


# -- malformed tables ----------------------------------------------------------

def _delta_mutations():
    """Each way a line table can lie about its payload."""
    def enc():
        img, cfg = _delta_cases()["modes"]
        return encode_image(img, cfg)

    def mutate(**changes):
        e = enc()
        for key, value in changes.items():
            setattr(e, key, value(e))
        return e

    return {
        "unknown mode": mutate(line_modes=lambda e: np.where(
            np.arange(6) == 3, 7, e.line_modes).astype(np.uint8)),
        "short modes": mutate(line_modes=lambda e: e.line_modes[:-1]),
        "short offsets": mutate(line_offsets=lambda e: e.line_offsets[:-1]),
        "offsets go back": mutate(line_offsets=lambda e: e.line_offsets[
            [0, 2, 1, 3, 4, 5, 6]]),
        "offsets past the end": mutate(payload=lambda e: e.payload[:-1]),
        "offsets short of the end": mutate(payload=lambda e: e.payload + b"\0"),
        "const read as raw": mutate(line_modes=lambda e: np.where(
            e.line_modes == 0, 2, e.line_modes).astype(np.uint8)),
        "raw read as delta": mutate(line_modes=lambda e: np.where(
            e.line_modes == 2, 1, e.line_modes).astype(np.uint8)),
    }


def _lut_mutations():
    def enc(mutate):
        e = encode_sample(_lut_cases()["u8"][0].astype(np.int16))
        t = e.tables[0]
        t.keys = mutate(t.keys.copy(), t.n_groups)
        return e

    return {
        "key out of range": enc(lambda k, n: np.where(np.arange(k.size) == 5,
                                                      n, k).astype(k.dtype)),
        "short keys": enc(lambda k, n: k[:-1]),
    }


def test_malformed_tables_raise(codec):
    if codec is CODECS["delta"]:
        for enc in _delta_mutations().values():
            with pytest.raises(ValueError):
                decode_images([enc])
        return
    for enc in _lut_mutations().values():
        if codec is CODECS["lut-fused"]:
            enc = _fold_log1p(enc)
        with pytest.raises((ValueError, IndexError)):
            codec.decode(enc)


def test_a_malformed_line_table_fails_only_its_slot():
    """An unknown mode byte in an unchecksummed (version-1) blob raises in
    that blob's slot; the group's other samples decode unchanged."""
    plugin = DeepcamDeltaPlugin("cpu")
    cfg = deepcam.DeepcamConfig(height=12, width=20, n_channels=4)
    blobs = [plugin.encode(s.data, s.label)
             for s in deepcam.generate_dataset(3, cfg, seed=4)]
    _, channels, label, extra = container.unpack_sample(blobs[1])
    channels[0].line_modes[3] = 7
    bad = container.pack_delta_sample(channels, label, extra, version=1)
    slots = plugin.decode_group([blobs[0], bad, blobs[2]])
    assert isinstance(slots[1], ValueError)
    assert "unknown line mode 7" in str(slots[1])
    for j in (0, 2):
        tensor, _ = slots[j]
        assert tensor.tobytes() == plugin.decode(blobs[j])[0].tobytes()


def test_no_runtime_warning(codec):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _, _, enc in _encoded(codec).values():
            codec.decode(enc)
