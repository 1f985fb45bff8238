"""Differential codec harness: production against reference, bit for bit.

One sample is pushed through each codec's production decoder and the
independent loop reference (:mod:`repro.conformance.reference`), and
through the container round-trip, and the outputs are compared as raw
bits (``tobytes()``), so NaN payloads and signed zeros count too.  The
encoder side is differential as well: the production delta encoder and
the line-at-a-time reference encoder must produce byte-identical streams.

A disagreement anywhere is a :class:`Mismatch` inside a
:class:`CaseReport`; :meth:`CaseReport.raise_if_failed` turns it into a
:class:`ConformanceError` whose message pinpoints the first differing
element.  The golden-vector verifier and the fuzzer are both built on
these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.conformance.reference import (
    decode_delta_reference,
    decode_lut_reference,
    encode_delta_reference,
    encode_lut_reference,
)
from repro.core.encoding import container
from repro.core.encoding.delta import (
    DeltaCodecConfig,
    DeltaEncodedImage,
    decode_images,
    encode_image,
)
from repro.core.encoding.lut import (
    LutCodecConfig,
    LutEncodedSample,
    apply_to_tables,
    decode_sample,
    encode_sample,
)

__all__ = [
    "ConformanceError",
    "Mismatch",
    "CaseReport",
    "delta_decode_outputs",
    "lut_decode_outputs",
    "check_delta_case",
    "check_lut_case",
    "check_batch_equivalence",
    "check_graph_equivalence",
    "compare_against",
    "delta_config_to_dict",
    "delta_config_from_dict",
    "lut_config_to_dict",
    "lut_config_from_dict",
]

#: reference implementation name every other output is compared against
REFERENCE = "reference"
#: the production implementation's name
PRODUCTION = "production"


class ConformanceError(AssertionError):
    """Two implementations of the same codec disagreed bit-for-bit."""


@dataclass(frozen=True)
class Mismatch:
    """One bit-level disagreement between two implementations."""

    impl: str
    against: str
    detail: str

    def __str__(self) -> str:
        return f"{self.impl} vs {self.against}: {self.detail}"


@dataclass
class CaseReport:
    """Outcome of one differential case (one sample, all implementations)."""

    codec: str
    impls: list[str] = field(default_factory=list)
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def raise_if_failed(self) -> None:
        if self.mismatches:
            lines = "; ".join(str(m) for m in self.mismatches)
            raise ConformanceError(
                f"{self.codec} conformance failure across "
                f"{self.impls}: {lines}"
            )


def _first_diff(a: np.ndarray, b: np.ndarray) -> str:
    """Describe the first differing element of two same-shape arrays."""
    av = np.ascontiguousarray(a).view(np.uint8).reshape(a.shape + (-1,))
    bv = np.ascontiguousarray(b).view(np.uint8).reshape(b.shape + (-1,))
    diff = (av != bv).any(axis=-1)
    n = int(np.count_nonzero(diff))
    idx = tuple(int(x) for x in np.argwhere(diff)[0])
    return (
        f"{n}/{a.size} elements differ, first at {idx}: "
        f"{a[idx]!r} != {b[idx]!r}"
    )


def compare_against(
    outputs: dict[str, np.ndarray], against: str = REFERENCE
) -> list[Mismatch]:
    """Bitwise-compare every output to ``outputs[against]``."""
    ref = outputs[against]
    mismatches: list[Mismatch] = []
    for name, arr in outputs.items():
        if name == against:
            continue
        if arr.shape != ref.shape or arr.dtype != ref.dtype:
            mismatches.append(Mismatch(
                name, against,
                f"shape/dtype {arr.shape}/{arr.dtype} != "
                f"{ref.shape}/{ref.dtype}",
            ))
        elif np.ascontiguousarray(arr).tobytes() != (
            np.ascontiguousarray(ref).tobytes()
        ):
            mismatches.append(Mismatch(name, against, _first_diff(arr, ref)))
    return mismatches


# --------------------------------------------------------------------------
# delta codec
# --------------------------------------------------------------------------

def delta_decode_outputs(enc: DeltaEncodedImage) -> dict[str, np.ndarray]:
    """FP16 output of both delta decoders for one encoded channel.

    Keys: ``reference`` (loop reference from the format doc) and
    ``production`` (:func:`~repro.core.encoding.delta.decode_images`).
    """
    return {
        REFERENCE: decode_delta_reference(enc),
        PRODUCTION: decode_images([enc])[0],
    }


def _delta_enc_equal(a: DeltaEncodedImage, b: DeltaEncodedImage) -> str | None:
    """``None`` when two encoded images are byte-identical, else a reason."""
    if a.shape != b.shape:
        return f"shape {a.shape} != {b.shape}"
    if a.line_modes.tobytes() != b.line_modes.tobytes():
        return "line_modes differ"
    if a.line_offsets.tobytes() != b.line_offsets.tobytes():
        return "line_offsets differ"
    if a.payload != b.payload:
        lo = next(
            i for i, (x, y) in enumerate(zip(a.payload, b.payload)) if x != y
        ) if len(a.payload) == len(b.payload) else -1
        return (
            f"payload differs (lengths {len(a.payload)}/{len(b.payload)}, "
            f"first byte {lo})"
        )
    return None


def check_delta_case(
    image: np.ndarray, config: DeltaCodecConfig | None = None
) -> CaseReport:
    """Encode one channel with both encoders, decode with both decoders.

    Checks (1) the production encoder emits the reference encoder's
    stream byte for byte, (2) the container round-trip preserves the
    stream exactly, and (3) both decoders agree bit-for-bit on the FP16
    output.
    """
    cfg = config or DeltaCodecConfig()
    report = CaseReport(codec="delta")
    enc = encode_delta_reference(image, cfg)
    report.impls = ["encoder-" + REFERENCE, "encoder-" + PRODUCTION,
                    "container", REFERENCE, PRODUCTION]

    reason = _delta_enc_equal(enc, encode_image(image, cfg))
    if reason is not None:
        report.mismatches.append(Mismatch(
            "encoder-" + PRODUCTION, "encoder-" + REFERENCE, reason
        ))

    blob = container.pack_delta_sample([enc], np.zeros(1, dtype=np.int8))
    _, channels, _, _ = container.unpack_sample(blob)
    reason = _delta_enc_equal(enc, channels[0])
    if reason is not None:
        report.mismatches.append(
            Mismatch("container", "encoder-" + REFERENCE,
                     f"round-trip: {reason}")
        )

    report.mismatches.extend(compare_against(delta_decode_outputs(enc)))
    return report


# --------------------------------------------------------------------------
# LUT codec
# --------------------------------------------------------------------------

def lut_decode_outputs(
    enc: LutEncodedSample,
    table_func: Callable[[np.ndarray], np.ndarray] | None = None,
    dtype: np.dtype | str | None = None,
) -> dict[str, np.ndarray]:
    """Output of every LUT decode path for one encoded sample.

    With ``table_func`` the fused-operator path is exercised: the operator
    is applied to the tables first (``apply_to_tables``), then both
    decoders expand the folded tables.
    """
    work = enc
    if table_func is not None:
        work = apply_to_tables(enc, table_func, out_dtype=dtype)
        out_dtype = work.tables[0].values.dtype if dtype is None else dtype
    else:
        out_dtype = dtype if dtype is not None else enc.tables[0].values.dtype
    return {
        REFERENCE: decode_lut_reference(work, dtype=out_dtype),
        "gather": decode_sample(work, dtype=out_dtype),
    }


def _lut_enc_equal(a: LutEncodedSample, b: LutEncodedSample) -> str | None:
    """``None`` when two encoded samples are byte-identical, else a reason."""
    if tuple(a.shape) != tuple(b.shape):
        return f"shape {a.shape} != {b.shape}"
    if len(a.tables) != len(b.tables):
        return f"table count {len(a.tables)} != {len(b.tables)}"
    for i, (ta, tb) in enumerate(zip(a.tables, b.tables)):
        if tuple(ta.region) != tuple(tb.region):
            return f"table {i} region differs"
        if ta.keys.dtype != tb.keys.dtype:
            return f"table {i} key dtype {ta.keys.dtype} != {tb.keys.dtype}"
        if ta.values.dtype != tb.values.dtype:
            return (
                f"table {i} value dtype {ta.values.dtype} != "
                f"{tb.values.dtype}"
            )
        if ta.keys.tobytes() != tb.keys.tobytes():
            return f"table {i} keys differ"
        if ta.values.tobytes() != tb.values.tobytes():
            return f"table {i} values differ"
    return None


def check_lut_case(
    volume: np.ndarray, config: LutCodecConfig | None = None
) -> CaseReport:
    """Encode one volume, decode with every path, plain and fused.

    Checks (1) the production encoder matches the reference encoder
    byte for byte, (2) the container round-trip preserves keys/tables
    exactly, (3) the plain decode paths agree at the native dtype, and
    (4) the fused ``log1p`` + FP16 paths agree — the paper's operator
    reordering must not change a single bit.
    """
    cfg = config or LutCodecConfig()
    report = CaseReport(codec="lut")
    enc = encode_lut_reference(volume, cfg)
    report.impls = ["encoder-" + REFERENCE, "encoder-" + PRODUCTION,
                    "container", REFERENCE, "gather",
                    "fused-" + REFERENCE, "fused-gather"]

    reason = _lut_enc_equal(enc, encode_sample(volume, cfg))
    if reason is not None:
        report.mismatches.append(Mismatch(
            "encoder-" + PRODUCTION, "encoder-" + REFERENCE, reason
        ))

    blob = container.pack_lut_sample(enc, np.zeros(1, dtype=np.float32))
    _, enc2, _, _ = container.unpack_sample(blob)
    reason = _lut_enc_equal(enc, enc2)
    if reason is not None:
        report.mismatches.append(
            Mismatch("container", "encoder-" + REFERENCE,
                     f"round-trip: {reason}")
        )

    report.mismatches.extend(compare_against(lut_decode_outputs(enc)))
    with np.errstate(invalid="ignore", divide="ignore"):
        fused = lut_decode_outputs(enc, table_func=np.log1p, dtype=np.float16)
    report.mismatches.extend(
        Mismatch("fused-" + m.impl, "fused-" + m.against, m.detail)
        for m in compare_against(fused)
    )
    return report


# --------------------------------------------------------------------------
# batched decode (the batch plane's conformance gate)
# --------------------------------------------------------------------------

def check_batch_equivalence(plugin, blobs: list[bytes]) -> CaseReport:
    """Prove a plugin's group decode bit-identical to the scalar loop.

    Runs ``plugin.decode_batch(blobs)`` — one ``decode_group`` call —
    against ``[plugin.decode(b) for b in blobs]`` — one group of one
    each — and compares every tensor and label as raw bytes.  This is
    the batch plane's contract: a group may change *when* work happens
    and how device launches merge, never a single output bit.  Callers
    exercise same-shape and mixed-shape groups; the check holds
    identically for both.
    """
    report = CaseReport(codec="batch")
    report.impls = ["scalar", "batched"]
    scalar = [plugin.decode(blob) for blob in blobs]
    batched = plugin.decode_batch(list(blobs))

    if len(batched) != len(scalar):
        report.mismatches.append(Mismatch(
            "batched", "scalar",
            f"returned {len(batched)} samples for {len(scalar)} blobs",
        ))
        return report

    for i, ((st, sl), (bt, bl)) in enumerate(zip(scalar, batched)):
        for fieldname, a, b in (("tensor", st, bt), ("label", sl, bl)):
            ms = compare_against(
                {"scalar": np.asarray(a), "batched": np.asarray(b)},
                against="scalar",
            )
            report.mismatches.extend(
                Mismatch(m.impl, m.against, f"sample {i} {fieldname}: {m.detail}")
                for m in ms
            )
    return report


# --------------------------------------------------------------------------
# compiled preprocessing graphs
# --------------------------------------------------------------------------

def check_graph_equivalence(graph, device=None, epochs: int = 1) -> CaseReport:
    """Prove an optimized compiled plan value-equal to the naive one.

    Compiles ``graph`` (a :class:`repro.graph.ir.PipelineGraph`) twice —
    verbatim and through the full optimizer pass pipeline — and runs
    every sample of the graph's source through both plans for ``epochs``
    epochs.  The two executions must agree on *which* samples survive
    filtering, in what order, and on every surviving tensor and label
    bit-for-bit.  ``device`` is the simulated GPU both plans' decode
    ops charge.  (A plugin's own ``decode`` is the optimized plan of its
    declaration by construction: both fuse the plugin's ``steps`` into
    one ``decode_group`` call.)
    """
    from repro.graph.compiler import compile_graph

    report = CaseReport(codec="graph")
    report.impls = ["naive", "optimized"]
    naive = compile_graph(graph, optimize=False, device=device)
    optimized = compile_graph(graph, optimize=True, device=device)
    source = graph.find("read").source
    indices = list(range(len(source)))

    for epoch in range(epochs):
        survivors: list[int] = []
        outputs: dict[int, "PipelineItem"] = {}
        pipe = naive.pipeline()
        for i in indices:
            item = pipe.run(i, epoch)
            if not item.meta.get("dropped"):
                survivors.append(i)
                outputs[i] = item

        opt_order = optimized.filter_order(np.asarray(indices), epoch)
        opt_survivors: list[int] = []
        pipe = optimized.pipeline()
        for i in opt_order.tolist():
            item = pipe.run(i, epoch)
            if item.meta.get("dropped"):
                continue
            opt_survivors.append(i)
            ref = outputs.get(i)
            if ref is None:
                continue  # survivor-set mismatch reported below
            for fieldname in ("tensor", "label"):
                a = getattr(item, fieldname)
                b = getattr(ref, fieldname)
                ms = compare_against(
                    {"naive": b, "optimized": a}, against="naive"
                )
                report.mismatches.extend(
                    Mismatch(
                        m.impl, m.against,
                        f"epoch {epoch} sample {i} {fieldname}: {m.detail}",
                    )
                    for m in ms
                )

        if opt_survivors != survivors:
            report.mismatches.append(Mismatch(
                "optimized", "naive",
                f"epoch {epoch}: survivor order "
                f"{opt_survivors} != {survivors}",
            ))
    return report


# --------------------------------------------------------------------------
# config (de)serialization — shared by the fuzzer's crash corpus and the
# golden-vector manifest
# --------------------------------------------------------------------------

def delta_config_to_dict(cfg: DeltaCodecConfig) -> dict:
    """JSON-safe form of a :class:`DeltaCodecConfig`."""
    return {
        "block_size": cfg.block_size,
        "rel_tol": cfg.rel_tol,
        "rel_floor": cfg.rel_floor,
        "max_literal_frac": cfg.max_literal_frac,
        "mantissa_bits": cfg.mantissa_bits,
        "quality_gate": cfg.quality_gate,
    }


def delta_config_from_dict(d: dict) -> DeltaCodecConfig:
    """Inverse of :func:`delta_config_to_dict`."""
    return DeltaCodecConfig(**d)


def lut_config_to_dict(cfg: LutCodecConfig) -> dict:
    """JSON-safe form of a :class:`LutCodecConfig`."""
    return {
        "max_groups_per_table": cfg.max_groups_per_table,
        "value_dtype": cfg.value_dtype,
    }


def lut_config_from_dict(d: dict) -> LutCodecConfig:
    """Inverse of :func:`lut_config_to_dict`."""
    return LutCodecConfig(**d)
