"""Golden-vector corpus: frozen encoded blobs + expected decoded arrays.

The corpus (``tests/vectors/``) is the codec contract made physical: a set
of container-packed encoded samples, the exact arrays they must decode to,
and SHA-256 digests over both.  It is generated **once** (``repro vectors
generate``) and from then on only *verified* — CI never regenerates it, so
any change to encoder, decoder, bit layout, or container framing that
moves a single bit fails loudly instead of silently shifting the ground
truth underneath the convergence claims.

Layout of a corpus directory::

    manifest.json      digests + per-case parameters (the only index)
    <case>.bin         container blob (pack_delta_sample/pack_lut_sample)
    <case>.npy         expected decoded array (np.save, C-order)

Expected arrays are produced by the *reference* decoders
(:mod:`repro.conformance.reference`) at generation time, so the corpus is
anchored to the format documentation rather than to any production
implementation.  Verification checks digests first, then decodes every
blob through every implementation via the differential harness and
compares each output to the stored expectation bit-for-bit.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.conformance.differential import (
    compare_against,
    delta_config_to_dict,
    delta_decode_outputs,
    lut_config_to_dict,
    lut_decode_outputs,
)
from repro.conformance.reference import (
    decode_delta_reference,
    decode_lut_reference,
)
from repro.core.encoding import container
from repro.core.encoding.delta import DeltaCodecConfig, encode_image
from repro.core.encoding.delta_decode_fast import (
    decode_image_fast,
    decode_images_fast,
)
from repro.core.encoding.lut import (
    LutCodecConfig,
    apply_to_tables,
    decode_sample,
    decode_samples,
    encode_sample,
)
from repro.util.rng import make_rng

__all__ = [
    "MANIFEST_NAME",
    "DEFAULT_SEED",
    "VectorCaseResult",
    "VectorReport",
    "generate_vectors",
    "verify_vectors",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1
#: default generation seed, recorded in the manifest for provenance
DEFAULT_SEED = 20260805


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr))
    return buf.getvalue()


# --------------------------------------------------------------------------
# case definitions — deterministic builders; every case gets its own
# sub-seed so adding a case never reshuffles the others
# --------------------------------------------------------------------------

def _smooth_image(rng, H, W, scale=1e-3):
    base = rng.normal(0.0, 1.0, (H, 1)).astype(np.float32)
    return base + np.cumsum(
        rng.normal(0, scale, (H, W)).astype(np.float32), axis=1
    )


def _delta_cases(seed: int) -> list[dict]:
    cases = []

    def add(name, image, cfg, note):
        cases.append({
            "name": name, "codec": "delta", "note": note,
            "image": np.ascontiguousarray(image, dtype=np.float32),
            "config": cfg,
        })

    rng = make_rng(seed + 1)
    add("delta-smooth", _smooth_image(rng, 16, 48), DeltaCodecConfig(),
        "smooth drift, default config: CONST/DELTA mix")

    rng = make_rng(seed + 2)
    img = rng.choice(
        np.array([-100.0, 0.0, 1.0, 1e4], dtype=np.float32), size=(12, 40)
    )
    add("delta-abrupt", img, DeltaCodecConfig(),
        "abrupt transitions: RAW lines and literal segments")

    rng = make_rng(seed + 3)
    img = np.repeat(rng.normal(0, 1, (10, 1)).astype(np.float32), 33, axis=1)
    img[5:] = np.float32(3.25)
    add("delta-const", img, DeltaCodecConfig(),
        "every line constant: all-CONST image")

    add("delta-singlecol",
        make_rng(seed + 4).normal(0, 1, (9, 1)).astype(np.float32),
        DeltaCodecConfig(), "W == 1: CONST forced for every line")

    rng = make_rng(seed + 5)
    img = _smooth_image(rng, 8, 40, scale=0.01)
    flat = img.reshape(-1)
    bad = rng.choice(flat.size, size=12, replace=False)
    flat[bad] = np.array(
        [np.nan, np.inf, -np.inf] * 4, dtype=np.float32
    )
    add("delta-specials", img, DeltaCodecConfig(),
        "NaN/Inf values: non-finite segments demote to literal/RAW")

    rng = make_rng(seed + 6)
    img = (rng.normal(0, 1, (6, 32)) * np.float32(1e-40)).astype(np.float32)
    add("delta-denormal", img, DeltaCodecConfig(),
        "FP32 denormal territory: the paper's >10% near-zero error tail")

    rng = make_rng(seed + 7)
    add("delta-mantissa2", _smooth_image(rng, 8, 30, scale=1e-2),
        DeltaCodecConfig(block_size=8, mantissa_bits=2),
        "1/5/2 bit split, 8-diff segments (precision-vs-window ablation)")

    rng = make_rng(seed + 8)
    add("delta-nogate", _smooth_image(rng, 8, 30, scale=0.1),
        DeltaCodecConfig(quality_gate=False),
        "open-loop codec: no reconstruction gate (paper behaviour)")

    rng = make_rng(seed + 9)
    add("delta-block1", _smooth_image(rng, 6, 17, scale=1e-2),
        DeltaCodecConfig(block_size=1),
        "single-diff segments: descriptor-per-difference extreme")

    rng = make_rng(seed + 10)
    add("delta-boundary", _smooth_image(rng, 5, 65, scale=1e-2),
        DeltaCodecConfig(block_size=64),
        "W-1 == block_size: last segment exactly full")
    return cases


def _lut_cases(seed: int) -> list[dict]:
    cases = []

    def add(name, volume, cfg, note, transform=None):
        cases.append({
            "name": name, "codec": "lut", "note": note,
            "volume": volume, "config": cfg, "transform": transform,
        })

    rng = make_rng(seed + 101)
    vol = rng.integers(0, 5, (4, 8, 8, 8)).astype(np.int16)
    add("lut-u8", vol, LutCodecConfig(),
        "few unique groups: 1-byte keys")

    rng = make_rng(seed + 102)
    vol = rng.integers(0, 3000, (4, 7, 7, 7)).astype(np.int16)
    add("lut-u16", vol, LutCodecConfig(),
        "more than 256 groups: 2-byte keys")

    rng = make_rng(seed + 103)
    vol = rng.integers(0, 200, (2, 6, 6)).astype(np.int16)
    add("lut-split", vol, LutCodecConfig(max_groups_per_table=16),
        "table overflow: recursive longest-axis split, multiple tables")

    rng = make_rng(seed + 104)
    vol = rng.integers(0, 50, (4, 12)).astype(np.int16)
    add("lut-1d", vol, LutCodecConfig(), "one spatial axis")

    add("lut-voxel",
        make_rng(seed + 105).integers(0, 9, (4, 1, 1, 1)).astype(np.int16),
        LutCodecConfig(), "single-voxel volume")

    rng = make_rng(seed + 106)
    vol = rng.integers(-300, 300, (4, 5, 5, 5)).astype(np.int16)
    add("lut-negative", vol, LutCodecConfig(),
        "negative counts: signed table entries survive the round trip")

    rng = make_rng(seed + 107)
    vol = rng.integers(0, 20, (4, 6, 6, 6)).astype(np.int16)
    add("lut-fused", vol, LutCodecConfig(),
        "fused log1p + FP16 cast applied to the tables before decode",
        transform="log1p-fp16")
    return cases


def _pack_blob_list(blobs: list[bytes]) -> bytes:
    """Concatenate container blobs with u32-LE length prefixes.

    The on-disk form of a *batched* golden case: one ``.bin`` file
    holding every member of the batch, in order.
    """
    return b"".join(struct.pack("<I", len(b)) + b for b in blobs)


def _unpack_blob_list(data: bytes) -> list[bytes]:
    """Inverse of :func:`_pack_blob_list` (strict: no trailing bytes)."""
    blobs: list[bytes] = []
    off = 0
    while off < len(data):
        if off + 4 > len(data):
            raise ValueError("truncated batch blob length prefix")
        (n,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + n > len(data):
            raise ValueError("truncated batch blob payload")
        blobs.append(data[off:off + n])
        off += n
    return blobs


def _batch_cases(seed: int) -> list[dict]:
    """Frozen batched-decode cases: several same-shape samples per case.

    The expected array is the *stack* of the per-sample reference
    decodes; verification additionally runs the vectorized batched
    decoders (one line pass / one table gather across all members) and
    the scalar loop, so a future change that breaks cross-sample state
    in the batched paths fails against frozen ground truth.
    """
    cases = []

    rng = make_rng(seed + 201)
    images = [_smooth_image(rng, 10, 36, scale=1e-2) for _ in range(3)]
    images.append(np.repeat(
        rng.normal(0, 1, (10, 1)).astype(np.float32), 36, axis=1
    ))  # an all-CONST member: per-member mode mix inside one batch
    cases.append({
        "name": "batch-delta", "codec": "delta-batch",
        "note": "4 same-shape delta samples decoded in one line pass",
        "images": images, "config": DeltaCodecConfig(),
    })

    rng = make_rng(seed + 202)
    vols = [
        rng.integers(0, 5, (3, 6, 6)).astype(np.int16),
        rng.integers(-40, 40, (3, 6, 6)).astype(np.int16),
        rng.integers(0, 2, (3, 6, 6)).astype(np.int16),
    ]
    cases.append({
        "name": "batch-lut", "codec": "lut-batch",
        "note": "3 same-shape LUT samples decoded by one stacked gather",
        "volumes": vols, "config": LutCodecConfig(),
    })
    return cases


def _expected_for(case: dict) -> tuple[bytes, np.ndarray]:
    """(container blob, expected decoded array) for one case definition.

    The blob comes from the reference-side encoders; the expected array
    from the *reference* decoder, never from the vectorized paths.
    """
    label = np.zeros(1, dtype=np.int8)
    if case["codec"] == "delta-batch":
        encs = [encode_image(img, case["config"]) for img in case["images"]]
        blob = _pack_blob_list(
            [container.pack_delta_sample([e], label) for e in encs]
        )
        return blob, np.stack([decode_delta_reference(e) for e in encs])
    if case["codec"] == "lut-batch":
        encs = [encode_sample(v, case["config"]) for v in case["volumes"]]
        blob = _pack_blob_list(
            [container.pack_lut_sample(e, label) for e in encs]
        )
        return blob, np.stack([decode_lut_reference(e) for e in encs])
    if case["codec"] == "delta":
        enc = encode_image(case["image"], case["config"])
        blob = container.pack_delta_sample([enc], label)
        return blob, decode_delta_reference(enc)
    enc = encode_sample(case["volume"], case["config"])
    blob = container.pack_lut_sample(enc, label)
    if case.get("transform") == "log1p-fp16":
        with np.errstate(invalid="ignore", divide="ignore"):
            fused = apply_to_tables(enc, np.log1p, out_dtype=np.float16)
        return blob, decode_lut_reference(fused, dtype=np.float16)
    return blob, decode_lut_reference(enc)


def generate_vectors(
    out_dir: Path | str, seed: int = DEFAULT_SEED, force: bool = False
) -> dict:
    """Write the golden-vector corpus; returns the manifest dict.

    Refuses to overwrite an existing manifest unless ``force`` — the whole
    point of the corpus is that it is generated once and then only
    verified.  Regenerating is a *format change* and must be deliberate.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / MANIFEST_NAME
    if manifest_path.exists() and not force:
        raise FileExistsError(
            f"{manifest_path} already exists; golden vectors are frozen "
            "(pass force=True / --force only for a deliberate format change)"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for case in _delta_cases(seed) + _lut_cases(seed) + _batch_cases(seed):
        blob, expected = _expected_for(case)
        npy = _npy_bytes(expected)
        name = case["name"]
        (out_dir / f"{name}.bin").write_bytes(blob)
        (out_dir / f"{name}.npy").write_bytes(npy)
        cfg = case["config"]
        entries.append({
            "name": name,
            "codec": case["codec"],
            "note": case["note"],
            "blob": f"{name}.bin",
            "blob_sha256": _sha256(blob),
            "expected": f"{name}.npy",
            "expected_sha256": _sha256(npy),
            "expected_dtype": str(expected.dtype),
            "expected_shape": list(expected.shape),
            "config": (
                delta_config_to_dict(cfg)
                if case["codec"].startswith("delta")
                else lut_config_to_dict(cfg)
            ),
            "transform": case.get("transform"),
        })
    manifest = {
        "format": MANIFEST_FORMAT,
        "seed": seed,
        "policy": (
            "frozen: verify, never regenerate (see docs/conformance.md)"
        ),
        "cases": entries,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

@dataclass
class VectorCaseResult:
    name: str
    codec: str
    ok: bool
    errors: list[str] = field(default_factory=list)


@dataclass
class VectorReport:
    """Outcome of verifying a corpus directory against its manifest."""

    directory: str
    results: list[VectorCaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    @property
    def failed(self) -> list[VectorCaseResult]:
        return [r for r in self.results if not r.ok]

    def to_json(self) -> dict:
        return {
            "directory": self.directory,
            "ok": self.ok,
            "cases": [
                {"name": r.name, "codec": r.codec, "ok": r.ok,
                 "errors": r.errors}
                for r in self.results
            ],
        }


def _verify_case(vec_dir: Path, entry: dict) -> VectorCaseResult:
    res = VectorCaseResult(name=entry["name"], codec=entry["codec"], ok=True)

    def fail(msg: str) -> None:
        res.ok = False
        res.errors.append(msg)

    blob_path = vec_dir / entry["blob"]
    npy_path = vec_dir / entry["expected"]
    try:
        blob = blob_path.read_bytes()
        npy = npy_path.read_bytes()
    except OSError as exc:
        fail(f"unreadable corpus file: {exc}")
        return res
    if _sha256(blob) != entry["blob_sha256"]:
        fail(f"{entry['blob']}: SHA-256 digest mismatch")
    if _sha256(npy) != entry["expected_sha256"]:
        fail(f"{entry['expected']}: SHA-256 digest mismatch")
    if not res.ok:
        return res

    expected = np.load(io.BytesIO(npy))
    if (str(expected.dtype) != entry["expected_dtype"]
            or list(expected.shape) != entry["expected_shape"]):
        fail("expected array does not match manifest dtype/shape")
        return res

    if entry["codec"] in ("delta-batch", "lut-batch"):
        return _verify_batch_case(res, entry, blob, expected, fail)

    try:
        codec, payload, _, _ = container.unpack_sample(blob)
    except ValueError as exc:
        fail(f"container unpack failed: {exc}")
        return res
    if codec != entry["codec"]:
        fail(f"container codec {codec!r} != manifest {entry['codec']!r}")
        return res

    try:
        if codec == "delta":
            outputs = delta_decode_outputs(payload[0])
        elif entry.get("transform") == "log1p-fp16":
            with np.errstate(invalid="ignore", divide="ignore"):
                outputs = lut_decode_outputs(
                    payload, table_func=np.log1p, dtype=np.float16
                )
        else:
            outputs = lut_decode_outputs(payload)
    except Exception as exc:
        fail(f"decode failed: {exc!r}")
        return res
    # every implementation against the frozen expectation, bit for bit
    outputs = {"expected": expected, **outputs}
    for m in compare_against(outputs, against="expected"):
        fail(str(m))
    return res


def _verify_batch_case(
    res: VectorCaseResult, entry: dict, blob: bytes, expected: np.ndarray,
    fail,
) -> VectorCaseResult:
    """Verify one batched case: scalar loop and vectorized batch decode
    must both reproduce the frozen stacked expectation bit-for-bit."""
    inner_codec = entry["codec"].split("-")[0]
    try:
        encs = []
        for member in _unpack_blob_list(blob):
            codec, payload, _, _ = container.unpack_sample(member)
            if codec != inner_codec:
                raise ValueError(
                    f"batch member codec {codec!r} != {inner_codec!r}"
                )
            encs.append(payload[0] if codec == "delta" else payload)
    except ValueError as exc:
        fail(f"batch unpack failed: {exc}")
        return res
    try:
        if inner_codec == "delta":
            outputs = {
                "reference": np.stack(
                    [decode_delta_reference(e) for e in encs]
                ),
                "scalar": np.stack([decode_image_fast(e) for e in encs]),
                "batched": np.stack(decode_images_fast(encs)),
            }
        else:
            outputs = {
                "reference": np.stack(
                    [decode_lut_reference(e) for e in encs]
                ),
                "scalar": np.stack([decode_sample(e) for e in encs]),
                "batched": np.stack(decode_samples(encs)),
            }
    except Exception as exc:
        fail(f"batched decode failed: {exc!r}")
        return res
    outputs = {"expected": expected, **outputs}
    for m in compare_against(outputs, against="expected"):
        fail(str(m))
    return res


def verify_vectors(vec_dir: Path | str) -> VectorReport:
    """Verify a golden-vector corpus without regenerating anything.

    Checks manifest digests, then decodes every blob through every
    implementation and compares each output bit-for-bit against the
    frozen expected array.
    """
    vec_dir = Path(vec_dir)
    report = VectorReport(directory=str(vec_dir))
    manifest_path = vec_dir / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        report.results.append(VectorCaseResult(
            name=MANIFEST_NAME, codec="-", ok=False,
            errors=[f"manifest unreadable: {exc}"],
        ))
        return report
    if manifest.get("format") != MANIFEST_FORMAT:
        report.results.append(VectorCaseResult(
            name=MANIFEST_NAME, codec="-", ok=False,
            errors=[f"unsupported manifest format {manifest.get('format')}"],
        ))
        return report
    for entry in manifest["cases"]:
        report.results.append(_verify_case(vec_dir, entry))
    return report
