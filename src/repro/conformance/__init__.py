"""Codec conformance kit: reference decoders, golden vectors, fuzzing.

The paper's results depend on the two custom codecs producing
*bit-identical* training inputs no matter which implementation tier decodes
them.  The repo carries several implementations of each decode path — the
loop reference (:mod:`repro.core.encoding.delta`) and the vectorized
encoder/decoder (:mod:`~repro.core.encoding.delta_fast`,
:mod:`~repro.core.encoding.delta_decode_fast`); both simulated-GPU
placements run these same decoders — and this package is the
machine-checked guarantee that they agree:

* :mod:`repro.conformance.reference` — obviously-correct, loop-based
  decoders written straight from ``docs/format-delta.md`` and
  ``docs/format-lut.md``, independent of the production implementations.
* :mod:`repro.conformance.differential` — runs one sample through every
  implementation (and the container round-trip) and reports the first
  bit-level disagreement.
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
    "fuzz",
    "generate_vectors",
    "lut_decode_outputs",
    "replay_crashes",
    "verify_vectors",
]
