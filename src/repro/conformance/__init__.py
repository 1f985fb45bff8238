"""Codec conformance kit: reference decoders, golden vectors, fuzzing.

The paper's results depend on the two custom codecs producing
*bit-identical* training inputs.  Each codec has one production
implementation (:mod:`repro.core.encoding.delta`,
:mod:`repro.core.encoding.lut`; both simulated-GPU placements run the
same decoders), and this package is the machine-checked guarantee that
it matches an independent reference:

* :mod:`repro.conformance.reference` — obviously-correct, loop-based
  decoders for both codecs, the line-at-a-time delta encoder and the
  row-wise ``np.unique`` LUT encoder, written straight from
  ``docs/format-delta.md`` and ``docs/format-lut.md``.
* :mod:`repro.conformance.differential` — runs one sample through the
  reference and production coders (and the container round-trip) and
  reports the first bit-level disagreement.
* :mod:`repro.conformance.fuzzer` — structured-corpus fuzzing over the
  differential harness plus a crash-corpus replay, so every past failure
  becomes a permanent regression test.
* :mod:`repro.conformance.vectors` — a frozen on-disk golden-vector corpus
  (``tests/vectors/``), generated once and *verified* — never
  regenerated — in CI.
"""

from repro.conformance.differential import (
    CaseReport,
    ConformanceError,
    Mismatch,
    check_batch_equivalence,
    check_delta_case,
    check_graph_equivalence,
    check_lut_case,
    delta_decode_outputs,
    lut_decode_outputs,
)
from repro.conformance.fuzzer import FuzzReport, fuzz, replay_crashes
from repro.conformance.reference import (
    decode_delta_reference,
    decode_lut_reference,
    encode_delta_reference,
    encode_lut_reference,
)
from repro.conformance.vectors import (
    generate_vectors,
    verify_vectors,
)

__all__ = [
    "CaseReport",
    "ConformanceError",
    "FuzzReport",
    "Mismatch",
    "check_batch_equivalence",
    "check_delta_case",
    "check_graph_equivalence",
    "check_lut_case",
    "decode_delta_reference",
    "decode_lut_reference",
    "delta_decode_outputs",
    "encode_delta_reference",
    "encode_lut_reference",
    "fuzz",
    "generate_vectors",
    "lut_decode_outputs",
    "replay_crashes",
    "verify_vectors",
]
