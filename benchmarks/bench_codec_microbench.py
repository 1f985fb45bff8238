"""Codec microbenchmarks: real encode/decode throughput of both codecs.

Unlike the exhibit benches (deterministic single-round regenerations),
these measure actual wall-clock performance of the Python implementations
on reduced-shape samples, and report MB/s via pytest-benchmark's timing.
"""

import numpy as np
import pytest

from repro.core.encoding import delta, lut
from repro.core.plugins import DeepcamDeltaPlugin, CosmoflowLutPlugin
from repro.datasets import cosmoflow, deepcam


@pytest.fixture(scope="module")
def deepcam_data():
    cfg = deepcam.DeepcamConfig(height=96, width=144, n_channels=8)
    return deepcam.generate_sample(cfg, seed=0)


@pytest.fixture(scope="module")
def cosmo_data():
    cfg = cosmoflow.CosmoflowConfig(grid=32)
    return cosmoflow.generate_sample(cfg, seed=0)


def test_delta_encode_throughput(benchmark, deepcam_data):
    ch = deepcam_data.data[0]
    enc = benchmark(delta.encode_image, ch)
    assert enc.nbytes < ch.nbytes


def test_delta_encode_fast_throughput(benchmark, deepcam_data):
    from repro.core.encoding.delta_fast import encode_image_fast

    ch = deepcam_data.data[0]
    enc = benchmark(encode_image_fast, ch)
    assert enc.payload == delta.encode_image(ch).payload


def test_delta_decode_throughput(benchmark, deepcam_data):
    ch = deepcam_data.data[0]
    enc = delta.encode_image(ch)
    out = benchmark(delta.decode_image, enc)
    assert out.dtype == np.float16


def test_delta_decode_fast_throughput(benchmark, deepcam_data):
    from repro.core.encoding.delta_decode_fast import decode_image_fast

    ch = deepcam_data.data[0]
    enc = delta.encode_image(ch)
    out = benchmark(decode_image_fast, enc)
    assert np.array_equal(out, delta.decode_image(enc))


def test_lut_encode_throughput(benchmark, cosmo_data):
    enc = benchmark(lut.encode_sample, cosmo_data.data)
    assert enc.nbytes < cosmo_data.data.nbytes


def test_lut_decode_throughput(benchmark, cosmo_data):
    enc = lut.encode_sample(cosmo_data.data)
    fused = lut.apply_to_tables(
        enc, lambda v: np.log1p(v.astype(np.float32)), out_dtype=np.float16
    )
    out = benchmark(lut.decode_sample, fused, dtype=np.float16)
    assert out.dtype == np.float16


def test_deepcam_plugin_roundtrip(benchmark, deepcam_data):
    plugin = DeepcamDeltaPlugin("cpu")
    blob = plugin.encode(deepcam_data.data, deepcam_data.label)

    def roundtrip():
        return plugin.decode(blob)

    tensor, _ = benchmark(roundtrip)
    assert tensor.dtype == np.float16


def test_cosmoflow_plugin_roundtrip(benchmark, cosmo_data):
    plugin = CosmoflowLutPlugin("cpu")
    blob = plugin.encode(cosmo_data.data, cosmo_data.label)

    def roundtrip():
        return plugin.decode(blob)

    tensor, _ = benchmark(roundtrip)
    assert tensor.dtype == np.float16
