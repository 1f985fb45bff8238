"""Structured-corpus differential fuzzer with a crash-corpus replay.

Random inputs rarely hit codec corner cases — a uniform-noise image almost
never produces a CONST line, a denormal difference, or a literal segment
re-anchor.  The generators here are *structured*: each case is drawn from a
named kind that targets one family of edge cases (constant runs, abrupt
transition lines, denormals, NaN/Inf, segment-boundary widths,
single-voxel volumes, key-width boundaries, multi-table splits), with the
codec configuration itself fuzzed alongside the data.  Everything is
seeded through :func:`repro.util.rng.make_rng`, so any failing case is
reproducible from ``(seed, case index)`` alone.

Failures are written to a **crash corpus** directory as ``.npz`` files
carrying the exact input array, codec configuration, and provenance;
:func:`replay_crashes` re-runs every saved case through the differential
harness, which is how a past failure becomes a permanent regression test
(``tests/crashes/`` is replayed by the tier-1 suite).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.conformance.differential import (
    CaseReport,
    check_delta_case,
    check_lut_case,
    delta_config_from_dict,
    delta_config_to_dict,
    lut_config_from_dict,
    lut_config_to_dict,
)
from repro.core.encoding.delta import DeltaCodecConfig
from repro.core.encoding.lut import LutCodecConfig
from repro.pipeline.executor import FailedItem
from repro.util.rng import make_rng

__all__ = [
    "DELTA_KINDS",
    "LUT_KINDS",
    "FuzzReport",
    "gen_delta_case",
    "gen_lut_case",
    "fuzz",
    "replay_crashes",
    "save_crash",
]

DELTA_KINDS = (
    "smooth",
    "constant_runs",
    "abrupt",
    "denormal",
    "specials",
    "extreme",
    "boundary",
)

LUT_KINDS = (
    "few_groups",
    "many_groups",
    "split",
    "flat",
    "single_voxel",
    "negatives",
    "wide_dtype",
)


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing run (or crash-corpus replay)."""

    codec: str
    seed: int | None = None
    cases: int = 0
    elapsed_s: float = 0.0
    by_kind: dict[str, int] = field(default_factory=dict)
    mismatches: list[dict] = field(default_factory=list)
    crashes: list[dict] = field(default_factory=list)
    saved: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.crashes

    def to_json(self) -> dict:
        return {
            "codec": self.codec,
            "seed": self.seed,
            "cases": self.cases,
            "elapsed_s": self.elapsed_s,
            "by_kind": dict(self.by_kind),
            "mismatches": list(self.mismatches),
            "crashes": list(self.crashes),
            "saved": list(self.saved),
            "ok": self.ok,
        }

    def merge(self, other: "FuzzReport") -> None:
        self.cases += other.cases
        self.elapsed_s += other.elapsed_s
        for k, v in other.by_kind.items():
            self.by_kind[k] = self.by_kind.get(k, 0) + v
        self.mismatches.extend(other.mismatches)
        self.crashes.extend(other.crashes)
        self.saved.extend(other.saved)


# --------------------------------------------------------------------------
# structured generators
# --------------------------------------------------------------------------

def _delta_config(rng: np.random.Generator) -> DeltaCodecConfig:
    return DeltaCodecConfig(
        block_size=int(rng.choice([1, 2, 3, 4, 8, 16, 64])),
        rel_tol=float(rng.choice([0.01, 0.05, 0.2])),
        rel_floor=float(rng.choice([0.0, 0.01, 0.1])),
        max_literal_frac=float(rng.choice([0.25, 0.5, 1.0])),
        mantissa_bits=int(rng.integers(1, 7)),
        quality_gate=bool(rng.integers(0, 2)),
    )


def gen_delta_case(
    rng: np.random.Generator,
) -> tuple[np.ndarray, DeltaCodecConfig, str]:
    """One structured delta fuzz case: ``(image, config, kind)``."""
    cfg = _delta_config(rng)
    kind = str(rng.choice(DELTA_KINDS))
    H = int(rng.integers(1, 7))
    if kind == "boundary":
        # widths straddling the segment grid: W-1 ≡ 0/±1 (mod block),
        # single-column lines, and a single segment exactly full
        B = cfg.block_size
        W = int(rng.choice([1, 2, B, B + 1, B + 2, 2 * B + 1, 3 * B]))
        W = max(W, 1)
    else:
        W = int(rng.integers(1, 49))
    base = rng.normal(0.0, 1.0, (H, 1)).astype(np.float32)
    if kind == "smooth":
        img = base + np.cumsum(
            rng.normal(0, 1e-3, (H, W)).astype(np.float32), axis=1
        )
    elif kind == "constant_runs":
        # piecewise-constant lines: zero differences inside runs, one
        # jump at each run boundary; some lines fully constant
        levels = rng.normal(0, 1, (H, W)).astype(np.float32)
        run = np.maximum(rng.integers(1, W + 1, H), 1)
        idx = (np.arange(W)[None, :] // run[:, None]).astype(np.int64)
        img = np.take_along_axis(levels, idx, axis=1)
    elif kind == "abrupt":
        img = rng.choice(
            np.array([-1e4, -1.0, 0.0, 1.0, 1e4], dtype=np.float32),
            size=(H, W),
        ) + rng.normal(0, 1e-2, (H, W)).astype(np.float32)
    elif kind == "denormal":
        scale = np.float32(10.0 ** rng.uniform(-42, -36))
        img = (rng.normal(0, 1, (H, W)) * scale).astype(np.float32)
    elif kind == "specials":
        img = base + np.cumsum(
            rng.normal(0, 0.01, (H, W)).astype(np.float32), axis=1
        )
        n_bad = max(1, int(0.05 * img.size))
        flat = rng.choice(img.size, size=n_bad, replace=False)
        img.reshape(-1)[flat] = rng.choice(
            np.array([np.nan, np.inf, -np.inf], dtype=np.float32), size=n_bad
        )
    elif kind == "extreme":
        img = (
            rng.choice([-1.0, 1.0], size=(H, W))
            * 10.0 ** rng.uniform(30, 38, (H, W))
        ).astype(np.float32)
    else:  # boundary: smooth data, the width does the work
        img = base + np.cumsum(
            rng.normal(0, 1e-2, (H, W)).astype(np.float32), axis=1
        )
    return np.ascontiguousarray(img, dtype=np.float32), cfg, kind


def gen_lut_case(
    rng: np.random.Generator,
) -> tuple[np.ndarray, LutCodecConfig, str]:
    """One structured LUT fuzz case: ``(volume, config, kind)``."""
    kind = str(rng.choice(LUT_KINDS))
    max_groups = 1 << 16
    value_dtype = "int16"
    C = int(rng.choice([1, 2, 4]))
    ndim = int(rng.integers(1, 4))
    dims = tuple(int(rng.integers(1, 7)) for _ in range(ndim))
    if kind == "few_groups":
        vol = rng.integers(0, 5, (C, *dims))
    elif kind == "many_groups":
        # force > 256 unique groups so 2-byte keys are exercised
        dims = (7, 7, 7)
        vol = rng.integers(0, 2000, (C, *dims))
    elif kind == "split":
        max_groups = int(rng.integers(2, 17))
        dims = tuple(int(rng.integers(2, 7)) for _ in range(max(ndim, 2)))
        vol = rng.integers(0, 100, (C, *dims))
    elif kind == "flat":
        vol = np.full((C, *dims), int(rng.integers(0, 10)))
    elif kind == "single_voxel":
        dims = tuple(1 for _ in range(ndim))
        vol = rng.integers(0, 100, (C, *dims))
    elif kind == "negatives":
        vol = rng.integers(-300, 300, (C, *dims))
    else:  # wide_dtype
        value_dtype = str(rng.choice(["uint8", "int32", "int16"]))
        hi = {"uint8": 255, "int32": 100_000, "int16": 30_000}[value_dtype]
        vol = rng.integers(0, hi, (C, *dims))
    cfg = LutCodecConfig(
        max_groups_per_table=max_groups, value_dtype=value_dtype
    )
    return vol.astype(np.dtype(value_dtype)), cfg, kind


# --------------------------------------------------------------------------
# fuzz loop + crash corpus
# --------------------------------------------------------------------------

def save_crash(
    crash_dir: Path | str,
    codec: str,
    data: np.ndarray,
    config: DeltaCodecConfig | LutCodecConfig,
    *,
    kind: str,
    seed: int | None,
    case: int,
    detail: str = "",
) -> Path:
    """Persist one failing case so it can be replayed forever.

    The ``.npz`` carries the exact input array plus JSON metadata; the
    file name embeds a content digest so re-finding the same case is
    idempotent.
    """
    crash_dir = Path(crash_dir)
    crash_dir.mkdir(parents=True, exist_ok=True)
    cfg_dict = (
        delta_config_to_dict(config)
        if codec == "delta"
        else lut_config_to_dict(config)
    )
    digest = hashlib.sha256(
        data.tobytes() + json.dumps(cfg_dict, sort_keys=True).encode()
    ).hexdigest()[:12]
    path = crash_dir / f"{codec}-{kind}-{digest}.npz"
    meta = {
        "codec": codec,
        "kind": kind,
        "seed": seed,
        "case": case,
        "detail": detail,
        "config": cfg_dict,
    }
    np.savez_compressed(
        path, data=data, meta=np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
    )
    return path


def _load_crash(path: Path) -> tuple[str, np.ndarray, dict]:
    with np.load(path) as z:
        data = z["data"]
        meta = json.loads(bytes(z["meta"].tobytes()).decode("utf-8"))
    return meta["codec"], data, meta


def _run_case(
    codec: str, data: np.ndarray, config: DeltaCodecConfig | LutCodecConfig
) -> CaseReport:
    # NaN/Inf/overflow inputs are the *point* of several fuzz kinds; the
    # codecs handle them by design, so their numeric warnings are noise
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if codec == "delta":
            return check_delta_case(data, config)
        if codec == "lut":
            return check_lut_case(data, config)
    raise ValueError(f"unknown codec {codec!r}")


def fuzz(
    codec: str,
    samples: int | None = None,
    budget_s: float | None = None,
    seed: int = 0,
    crash_dir: Path | str | None = None,
) -> FuzzReport:
    """Run the structured differential fuzzer for one codec.

    Stops after ``samples`` cases, after ``budget_s`` seconds of wall
    clock, or — when both are given — at whichever comes first (the
    nightly CI job is time-budgeted; the tier-1 suite count-budgeted).
    Failing inputs are saved to ``crash_dir`` when provided.
    """
    if codec not in ("delta", "lut"):
        raise ValueError(f"codec must be 'delta' or 'lut', got {codec!r}")
    if samples is None and budget_s is None:
        raise ValueError("either samples or budget_s is required")
    rng = make_rng(seed)
    report = FuzzReport(codec=codec, seed=seed)
    gen = gen_delta_case if codec == "delta" else gen_lut_case
    t0 = perf_counter()
    i = 0
    while True:
        if samples is not None and i >= samples:
            break
        if budget_s is not None and perf_counter() - t0 >= budget_s:
            break
        data, cfg, kind = gen(rng)
        report.by_kind[kind] = report.by_kind.get(kind, 0) + 1
        try:
            case = _run_case(codec, data, cfg)
        except Exception as exc:
            # a decode-path crash is as much a conformance failure as a
            # bit mismatch; FailedItem gives it a serializable form
            report.crashes.append(
                {**FailedItem(index=i, error=exc).to_json(), "kind": kind}
            )
            if crash_dir is not None:
                report.saved.append(str(save_crash(
                    crash_dir, codec, data, cfg, kind=kind, seed=seed,
                    case=i, detail=repr(exc),
                )))
        else:
            if not case.ok:
                detail = "; ".join(str(m) for m in case.mismatches)
                report.mismatches.append(
                    {"case": i, "kind": kind, "detail": detail}
                )
                if crash_dir is not None:
                    report.saved.append(str(save_crash(
                        crash_dir, codec, data, cfg, kind=kind, seed=seed,
                        case=i, detail=detail,
                    )))
        i += 1
    report.cases = i
    report.elapsed_s = perf_counter() - t0
    return report


def replay_crashes(crash_dir: Path | str) -> FuzzReport:
    """Re-run every saved crash case through the differential harness.

    Returns an aggregate report; a corpus directory with no ``.npz``
    files yields an empty, passing report.  Every entry that still fails
    is reported with the file it came from, so a regression points
    straight at the reproducer.
    """
    crash_dir = Path(crash_dir)
    report = FuzzReport(codec="replay")
    t0 = perf_counter()
    for path in sorted(crash_dir.glob("*.npz")):
        codec, data, meta = _load_crash(path)
        cfg = (
            delta_config_from_dict(meta["config"])
            if codec == "delta"
            else lut_config_from_dict(meta["config"])
        )
        report.cases += 1
        kind = meta.get("kind", "?")
        report.by_kind[kind] = report.by_kind.get(kind, 0) + 1
        try:
            case = _run_case(codec, data, cfg)
        except Exception as exc:
            report.crashes.append({
                **FailedItem(index=report.cases - 1, error=exc).to_json(),
                "kind": kind, "file": str(path),
            })
        else:
            if not case.ok:
                report.mismatches.append({
                    "file": str(path), "kind": kind,
                    "detail": "; ".join(str(m) for m in case.mismatches),
                })
    report.elapsed_s = perf_counter() - t0
    return report
