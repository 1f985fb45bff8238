"""On-disk/in-flight container for encoded samples.

The plugins serialize encoded samples into a self-describing binary
container so that (a) the storage substrate can measure true transferred
byte counts, (b) samples round-trip through files, and (c) the decoder can
reconstruct the codec state without out-of-band information.  Labels are
carried losslessly (paper §VIII-A: "for both applications, we use lossless
compression of the labels"), via zlib.

Layout (version 2)::

    b"RPRS" | u8 version | u8 codec | u16 flags | u32 header_len | u32 header_crc
    header (UTF-8 JSON)   — shapes, dtypes, section offsets, section CRC32s
    payload sections      — raw bytes, back-to-back

``header_crc`` is the CRC32 of the JSON header bytes; the header's
``"crcs"`` list carries one CRC32 per payload section, so every byte after
the fixed prefix is integrity-checked.  A mismatch raises
:class:`CorruptSampleError` naming the failing section — blobs migrate
PFS → NVMe → host cache → device, and each hop is a chance for silent
corruption that must never decode to garbage tensors.

Version-1 blobs (no checksums, ``<4sBBHI`` prefix) are still read; their
verification is a no-op.  The JSON header costs a few hundred bytes per
sample, negligible against multi-megabyte payloads, and keeps the format
debuggable.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from repro.core.encoding.delta import DeltaCodecConfig, DeltaEncodedImage
from repro.core.encoding.lut import LutEncodedSample, LutTable

__all__ = [
    "CODEC_RAW",
    "CODEC_DELTA",
    "CODEC_LUT",
    "CorruptSampleError",
    "pack_raw_sample",
    "pack_delta_sample",
    "pack_lut_sample",
    "unpack_sample",
    "verify_sample",
    "peek_codec",
    "peek_version",
]

_MAGIC = b"RPRS"
_VERSION = 2
_V1_HEADER_FMT = "<4sBBHI"
_V1_HEADER_SIZE = struct.calcsize(_V1_HEADER_FMT)
_V2_HEADER_FMT = "<4sBBHII"
_V2_HEADER_SIZE = struct.calcsize(_V2_HEADER_FMT)

CODEC_RAW = 0
CODEC_DELTA = 1
CODEC_LUT = 2

_CODEC_NAMES = {CODEC_RAW: "raw", CODEC_DELTA: "delta", CODEC_LUT: "lut"}


class CorruptSampleError(ValueError):
    """A container failed integrity verification.

    Subclasses :class:`ValueError` so pre-checksum error handling keeps
    working; carries enough context for quarantine reports.

    Attributes
    ----------
    sample_id:
        The dataset-level identity of the sample (index or name) when the
        caller supplied one, else ``None``.
    section:
        Which part of the container mismatched: ``"header"``, ``"payload"``
        (truncation), or ``"section <i>"`` for one payload section.
    """

    def __init__(self, detail: str, *, sample_id=None, section: str | None = None):
        self.sample_id = sample_id
        self.section = section
        where = f" in {section}" if section else ""
        ident = f" (sample {sample_id!r})" if sample_id is not None else ""
        super().__init__(f"corrupt container{where}{ident}: {detail}")


def _assemble(
    codec: int, header: dict, sections: list[bytes], version: int = _VERSION
) -> bytes:
    if version not in (1, _VERSION):
        raise ValueError(f"cannot write container version {version}")
    offsets = []
    pos = 0
    for blob in sections:
        offsets.append((pos, len(blob)))
        pos += len(blob)
    header = dict(header)
    header["sections"] = offsets
    if version >= 2:
        header["crcs"] = [zlib.crc32(blob) for blob in sections]
    hdr_json = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if version == 1:
        prefix = struct.pack(_V1_HEADER_FMT, _MAGIC, 1, codec, 0, len(hdr_json))
    else:
        prefix = struct.pack(
            _V2_HEADER_FMT, _MAGIC, version, codec, 0, len(hdr_json),
            zlib.crc32(hdr_json),
        )
    return b"".join([prefix, hdr_json] + sections)


def _parse(
    data: bytes, *, verify: bool = True, sample_id=None
) -> tuple[int, int, dict, memoryview]:
    """Split a container into ``(version, codec, header, body)``.

    With ``verify`` (the default) the v2 header CRC is checked here and the
    per-section CRCs are checked against the body; v1 blobs carry no
    checksums, so for them verification is a no-op.
    """
    if len(data) < _V1_HEADER_SIZE:
        raise ValueError("container truncated")
    magic, version, codec, _, hdr_len = struct.unpack_from(_V1_HEADER_FMT, data)
    if magic != _MAGIC:
        raise ValueError("bad container magic")
    if version == 1:
        prefix_size = _V1_HEADER_SIZE
        hdr_crc = None
    elif version == _VERSION:
        if len(data) < _V2_HEADER_SIZE:
            raise ValueError("container truncated")
        _, _, _, _, hdr_len, hdr_crc = struct.unpack_from(_V2_HEADER_FMT, data)
        prefix_size = _V2_HEADER_SIZE
    else:
        raise ValueError(f"unsupported container version {version}")
    hdr_end = prefix_size + hdr_len
    if len(data) < hdr_end:
        raise ValueError("container truncated")
    hdr_json = bytes(data[prefix_size:hdr_end])
    if verify and hdr_crc is not None and zlib.crc32(hdr_json) != hdr_crc:
        raise CorruptSampleError(
            "header checksum mismatch", sample_id=sample_id, section="header"
        )
    header = json.loads(hdr_json.decode("utf-8"))
    body = memoryview(data)[hdr_end:]
    if verify:
        _verify_sections(header, body, sample_id)
    return version, codec, header, body


def _verify_sections(header: dict, body: memoryview, sample_id) -> None:
    crcs = header.get("crcs")
    if crcs is None:  # version-1 blob: nothing to check
        return
    sections = header["sections"]
    if len(crcs) != len(sections):
        raise CorruptSampleError(
            "section/CRC count mismatch", sample_id=sample_id, section="header"
        )
    end = sections[-1][0] + sections[-1][1] if sections else 0
    if len(body) < end:
        raise CorruptSampleError(
            f"payload truncated ({len(body)} < {end} bytes)",
            sample_id=sample_id,
            section="payload",
        )
    for i, ((off, size), crc) in enumerate(zip(sections, crcs)):
        if zlib.crc32(body[off : off + size]) != crc:
            raise CorruptSampleError(
                "payload checksum mismatch",
                sample_id=sample_id,
                section=f"section {i}",
            )


def verify_sample(data: bytes, sample_id=None) -> int:
    """Integrity-check a container without decoding its payload.

    Returns the container version.  Raises :class:`CorruptSampleError` on
    any checksum mismatch or payload truncation, and plain ``ValueError``
    on structural damage (bad magic, unknown version).  Version-1 blobs
    carry no checksums, so only their structure is checked.
    """
    version, codec, _, _ = _parse(data, verify=True, sample_id=sample_id)
    if codec not in _CODEC_NAMES:
        raise ValueError(f"unknown codec id {codec}")
    return version


def peek_codec(data: bytes) -> str:
    """Return the codec name of a container without full parsing."""
    _, codec, _, _ = _parse(data, verify=False)
    return _CODEC_NAMES[codec]


def peek_version(data: bytes) -> int:
    """Return the container format version of a blob."""
    version, _, _, _ = _parse(data, verify=False)
    return version


def _label_header(label: np.ndarray) -> dict:
    return {"dtype": str(label.dtype), "shape": list(label.shape)}


def _pack_label(label: np.ndarray) -> bytes:
    return zlib.compress(np.ascontiguousarray(label).tobytes(), level=6)


def _unpack_label(meta: dict, blob: bytes) -> np.ndarray:
    raw = zlib.decompress(blob)
    arr = np.frombuffer(raw, dtype=np.dtype(meta["dtype"]))
    return arr.reshape(meta["shape"]).copy()


def pack_raw_sample(
    sample: np.ndarray,
    label: np.ndarray,
    extra: dict | None = None,
    version: int = _VERSION,
) -> bytes:
    """Container for an unencoded (baseline) sample."""
    sample = np.ascontiguousarray(sample)
    header = {
        "shape": list(sample.shape),
        "dtype": str(sample.dtype),
        "label": _label_header(label),
        "extra": extra or {},
    }
    return _assemble(
        CODEC_RAW, header, [sample.tobytes(), _pack_label(label)], version
    )


def pack_delta_sample(
    channels: list[DeltaEncodedImage],
    label: np.ndarray,
    extra: dict | None = None,
    version: int = _VERSION,
) -> bytes:
    """Container for a DeepCAM sample: one delta-encoded image per channel."""
    if not channels:
        raise ValueError("at least one channel required")
    cfg = channels[0].config
    header = {
        "shape": [len(channels), *channels[0].shape],
        "config": {
            "block_size": cfg.block_size,
            "rel_tol": cfg.rel_tol,
            "rel_floor": cfg.rel_floor,
            "max_literal_frac": cfg.max_literal_frac,
            "mantissa_bits": cfg.mantissa_bits,
            "quality_gate": cfg.quality_gate,
        },
        "channels": [],
        "label": _label_header(label),
        "extra": extra or {},
    }
    sections: list[bytes] = []
    for enc in channels:
        if enc.shape != channels[0].shape:
            raise ValueError("all channels must share one shape")
        header["channels"].append({"payload_len": len(enc.payload)})
        sections.append(enc.line_modes.tobytes())
        sections.append(enc.line_offsets.astype("<u8").tobytes())
        sections.append(enc.payload)
    sections.append(_pack_label(label))
    return _assemble(CODEC_DELTA, header, sections, version)


def pack_lut_sample(
    enc: LutEncodedSample,
    label: np.ndarray,
    extra: dict | None = None,
    version: int = _VERSION,
) -> bytes:
    """Container for a CosmoFlow sample: keys + lookup tables."""
    header = {
        "shape": list(enc.shape),
        "dtype": str(enc.dtype),
        "tables": [],
        "label": _label_header(label),
        "extra": extra or {},
    }
    sections: list[bytes] = []
    for t in enc.tables:
        header["tables"].append(
            {
                "region": [list(r) for r in t.region],
                "key_dtype": str(t.keys.dtype),
                "n_groups": int(t.values.shape[0]),
                "value_dtype": str(t.values.dtype),
            }
        )
        sections.append(np.ascontiguousarray(t.keys).tobytes())
        sections.append(np.ascontiguousarray(t.values).tobytes())
    sections.append(_pack_label(label))
    return _assemble(CODEC_LUT, header, sections, version)


def unpack_sample(data: bytes, *, verify: bool = True, sample_id=None):
    """Parse any container.

    Returns ``(codec_name, payload, label, extra)`` where ``payload`` is

    * ``raw``   — the dense ``np.ndarray`` sample,
    * ``delta`` — ``list[DeltaEncodedImage]`` (one per channel),
    * ``lut``   — a :class:`LutEncodedSample`,

    and ``extra`` is the plugin metadata dict passed at pack time.

    With ``verify`` (the default) version-2 checksums are validated first
    and a mismatch raises :class:`CorruptSampleError` tagged with
    ``sample_id``; version-1 blobs parse as before, unchecked.
    """
    _, codec, header, body = _parse(data, verify=verify, sample_id=sample_id)
    sections = header["sections"]

    def section(i: int) -> memoryview:
        off, size = sections[i]
        return body[off : off + size]

    label = _unpack_label(header["label"], bytes(section(len(sections) - 1)))
    extra = header.get("extra", {})

    if codec == CODEC_RAW:
        arr = np.frombuffer(section(0), dtype=np.dtype(header["dtype"]))
        return "raw", arr.reshape(header["shape"]).copy(), label, extra

    if codec == CODEC_DELTA:
        C, H, W = header["shape"]
        cfg = DeltaCodecConfig(**header["config"])
        channels = []
        for c in range(C):
            base = 3 * c
            modes = np.frombuffer(section(base), dtype=np.uint8).copy()
            offsets = np.frombuffer(section(base + 1), dtype="<u8").astype(np.uint64)
            payload = bytes(section(base + 2))
            channels.append(
                DeltaEncodedImage(
                    shape=(H, W),
                    line_modes=modes,
                    line_offsets=offsets,
                    payload=payload,
                    config=cfg,
                )
            )
        return "delta", channels, label, extra

    if codec == CODEC_LUT:
        shape = tuple(header["shape"])
        C = shape[0]
        tables = []
        for i, tmeta in enumerate(header["tables"]):
            # read-only views of the blob: the decoder only gathers from them
            keys = np.frombuffer(
                section(2 * i), dtype=np.dtype(tmeta["key_dtype"])
            )
            values = np.frombuffer(
                section(2 * i + 1), dtype=np.dtype(tmeta["value_dtype"])
            ).reshape(tmeta["n_groups"], C)
            keys.flags.writeable = values.flags.writeable = False
            tables.append(
                LutTable(
                    region=tuple(tuple(r) for r in tmeta["region"]),
                    keys=keys,
                    values=values,
                )
            )
        enc = LutEncodedSample(
            shape=shape, tables=tables, dtype=np.dtype(header["dtype"])
        )
        return "lut", enc, label, extra

    raise ValueError(f"unknown codec id {codec}")
