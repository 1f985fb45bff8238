"""Domain-specific sample encoders/decoders — the paper's core contribution.

One production implementation per codec; the line-at-a-time reference
coders they are checked against live in :mod:`repro.conformance.reference`.

* :mod:`repro.core.encoding.delta` — DeepCAM differential line codec.
* :mod:`repro.core.encoding.lut` — CosmoFlow lookup-table codec.
* :mod:`repro.core.encoding.container` — self-describing sample container.
* :mod:`repro.core.encoding.analysis` — sample-compressibility analysis.
"""

from repro.core.encoding import analysis, container, delta, lut
from repro.core.encoding.delta import DeltaCodecConfig, DeltaEncodedImage
from repro.core.encoding.lut import LutCodecConfig, LutEncodedSample

__all__ = [
    "analysis",
    "container",
    "delta",
    "lut",
    "DeltaCodecConfig",
    "DeltaEncodedImage",
    "LutCodecConfig",
    "LutEncodedSample",
]
