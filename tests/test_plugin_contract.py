"""The plugin contract: one decode method and the rules it must keep.

Every plugin implements exactly one decode method,
``SamplePlugin.decode_group(blobs, func=None, device=None)``; ``decode``,
``decode_raw`` and ``decode_batch`` derive from it, and the simulated GPU
only keeps accounts.  Each rule below runs against every plugin
configuration — the LUT plugin on the CPU, on the GPU and without
``log1p``; the delta plugin on the CPU and the GPU; both baselines; and
``AutoPlugin`` on LUT, delta and raw data:

* a group decodes bit-for-bit like its members one by one — same-shape
  (the vectorized paths), mixed-shape, single-blob and empty groups;
* ``decode_group(b, f)`` is ``f(decode_raw(b))`` for the declared chain;
* a bad blob fails its own slot only, and every blob is unpacked once;
* a GPU-placed decode charges the device exactly the launches the
  pre-refactor ``k_*_decode`` kernels charged (frozen below);
* the loader's default plan is the plugin's declared plan, one
  ``decode_group`` call per group.
"""

import numpy as np
import pytest

from repro.accel.device import V100, SimulatedGpu
from repro.core.encoding import container
from repro.core.encoding.lut import encode_sample
from repro.core.plugins import (
    AutoPlugin,
    CosmoflowBaselinePlugin,
    CosmoflowLutPlugin,
    DeepcamBaselinePlugin,
    DeepcamDeltaPlugin,
)
from repro.datasets import cosmoflow, deepcam
from repro.graph import FusedStep, compose_steps
from repro.pipeline import DataLoader, ListSource

#: plugin factory and the data it encodes, per configuration
CONFIGS = {
    "lut-cpu": (lambda: CosmoflowLutPlugin("cpu"), "cosmo"),
    "lut-gpu": (lambda: CosmoflowLutPlugin("gpu"), "cosmo"),
    "lut-nolog": (lambda: CosmoflowLutPlugin(apply_log=False), "cosmo"),
    "delta-cpu": (lambda: DeepcamDeltaPlugin("cpu"), "cam"),
    "delta-gpu": (lambda: DeepcamDeltaPlugin("gpu"), "cam"),
    "deepcam-base": (DeepcamBaselinePlugin, "cam"),
    "cosmo-base": (CosmoflowBaselinePlugin, "cosmo"),
    "auto-lut": (AutoPlugin, "cosmo"),
    "auto-delta": (AutoPlugin, "cam"),
    "auto-raw": (AutoPlugin, "raw"),
}

#: ``(name, bytes_moved, flops, seconds)`` of every V100 launch for the
#: scalar decode of the first sample and for ``decode_batch`` of all four,
#: as the ``k_lut_decode``/``k_delta_decode`` kernels (and their
#: ``_batch`` variants) charged them before the decode contract existed;
#: every other configuration charges nothing
FROZEN_LAUNCHES = {
    "lut-gpu": (
        [("lut_table_preproc", 4576, 4576.0, 5.006779259259259e-06),
         ("lut_gather", 43248, 0.0, 5.0640711111111115e-06)],
        [("lut_table_preproc", 18544, 18544.0, 5.027472592592593e-06),
         ("lut_gather", 169016, 0.0, 5.250394074074075e-06)],
    ),
    "lut-nolog": (
        [("lut_gather", 43248, 0.0, 5.0640711111111115e-06)],
        [("lut_gather", 169016, 0.0, 5.250394074074075e-06)],
    ),
    "delta-gpu": (
        [("delta_decode", 3592, 0.0, 5.196078431372549e-06)],
        [("delta_decode", 14536, 0.0, 2.0784313725490197e-05)],
    ),
}


def _samples(kind: str):
    """Four same-shape samples and one of another shape."""
    if kind == "cosmo":
        def make(n, grid, seed):
            cfg = cosmoflow.CosmoflowConfig(
                grid=grid, n_particles=2000, n_clusters=2
            )
            return [(s.data, s.label)
                    for s in cosmoflow.generate_dataset(n, cfg, seed=seed)]

        return make(4, 16, 31), make(1, 8, 33)[0]
    if kind == "cam":
        def make(n, h, w, seed):
            cfg = deepcam.DeepcamConfig(height=h, width=w, n_channels=4)
            return [(s.data, s.label)
                    for s in deepcam.generate_dataset(n, cfg, seed=seed)]

        return make(4, 12, 20, 32), make(1, 8, 12, 34)[0]
    rng = np.random.default_rng(35)

    def noise(shape, i):
        return rng.normal(size=shape).astype(np.float32), np.array([i])

    return [noise((3, 8, 8), i) for i in range(4)], noise((3, 6, 6), 4)


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def case(request):
    """``(name, plugin, same, mixed)``: four same-shape blobs, and a
    group of three whose middle blob has another shape."""
    make, kind = CONFIGS[request.param]
    plugin = make()
    same, odd = _samples(kind)
    same = [plugin.encode(data, label) for data, label in same]
    mixed = [same[0], plugin.encode(*odd), same[1]]
    return request.param, plugin, same, mixed


def _bits(pair):
    tensor, label = pair
    return (tensor.dtype.str, tensor.shape, tensor.tobytes(),
            np.asarray(label).tobytes())


def _launches(device):
    return [(k.name, k.bytes_moved, k.flops, k.seconds)
            for k in device.launches]


def test_group_is_the_scalar_decode(case):
    _, plugin, same, mixed = case
    chain = compose_steps(plugin.steps)
    for blobs in (same, mixed, same[:1], []):
        group = plugin.decode_group(blobs, chain)
        assert len(group) == len(blobs)
        assert [_bits(p) for p in group] == [
            _bits(plugin.decode_group([b], chain)[0]) for b in blobs
        ]
        assert [_bits(p) for p in plugin.decode_batch(blobs)] == [
            _bits(plugin.decode(b)) for b in blobs
        ]


def test_func_is_the_chain_after_the_native_decode(case):
    _, plugin, same, mixed = case
    fp32 = compose_steps((FusedStep("fp32", out_dtype=np.dtype(np.float32)),))
    for chain in filter(None, (compose_steps(plugin.steps), fp32)):
        for blobs in (same, mixed):
            want = []
            for blob in blobs:
                tensor, label = plugin.decode_raw(blob)
                want.append(_bits((chain(tensor), label)))
            got = plugin.decode_group(blobs, chain)
            assert [_bits(p) for p in got] == want


def _bad_blobs(plugin) -> list[bytes]:
    """A corrupt blob, and one of another codec (the auto plugin decodes
    every codec, so only the corrupt one is bad for it)."""
    label = np.zeros(1, dtype=np.int8)
    if isinstance(plugin, AutoPlugin):
        return [b"not a container"]
    other = (
        container.pack_raw_sample(np.zeros((1, 2), np.float32), label)
        if plugin.codec != "raw"
        else container.pack_lut_sample(
            encode_sample(np.zeros((4, 2, 2), np.int16)), label
        )
    )
    return [b"not a container", other]


def test_a_bad_blob_fails_only_its_own_slot(case, monkeypatch):
    name, plugin, same, _ = case
    chain = compose_steps(plugin.steps)
    unpack = container.unpack_sample
    for bad in _bad_blobs(plugin):
        group = [same[0], same[1], bad, same[3]]
        calls = []

        def counting(data, **kw):
            calls.append(data)
            return unpack(data, **kw)

        monkeypatch.setattr(container, "unpack_sample", counting)
        device = SimulatedGpu(spec=V100)
        slots = plugin.decode_group(group, chain, device)
        monkeypatch.undo()
        assert len(calls) == 4  # one unpack per blob, in order
        assert all(c is b for c, b in zip(calls, group))
        assert isinstance(slots[2], Exception)
        scalar = SimulatedGpu(spec=V100)
        for j in (0, 1, 3):
            assert not isinstance(slots[j], Exception), name
            assert _bits(slots[j]) == _bits(plugin.decode(group[j], scalar))
        for attr in ("bytes_moved", "flops"):
            assert sum(getattr(k, attr) for k in device.launches) == sum(
                getattr(k, attr) for k in scalar.launches
            )


def test_device_launches_are_frozen(case):
    name, plugin, same, _ = case
    scalar, group = SimulatedGpu(spec=V100), SimulatedGpu(spec=V100)
    plugin.decode(same[0], scalar)
    plugin.decode_batch(same, group)
    assert (_launches(scalar), _launches(group)) == FROZEN_LAUNCHES.get(
        name, ([], [])
    )


@pytest.mark.parametrize("batch_size", [1, 3])
def test_the_default_plan_is_the_declared_plan(case, batch_size):
    _, plugin, same, _ = case

    def epoch(graph):
        loader = DataLoader(
            ListSource(same), plugin, batch_size=batch_size, seed=5,
            graph=graph, batched_fetch=True,
        )
        assert [op.name for op in loader.plan.ops] == ["read", "decode"]
        return loader.epoch_order(0).tolist(), [
            (t.tobytes(), l.tobytes()) for t, l in loader.batches(0)
        ]

    order, rows = epoch(None)
    assert epoch(True) == (order, rows)
    pairs = [plugin.decode(same[i]) for i in order]
    assert rows == [
        (np.stack([t for t, _ in pairs[k:k + batch_size]]).tobytes(),
         np.stack([l for _, l in pairs[k:k + batch_size]]).tobytes())
        for k in range(0, len(pairs), batch_size)
    ]


def test_a_declared_plan_decodes_one_group_per_call(case, monkeypatch):
    name, plugin, same, _ = case
    sizes = []
    decode_group = type(plugin).decode_group

    def counting(self, blobs, func=None, device=None):
        sizes.append(len(blobs))
        return decode_group(self, blobs, func, device)

    monkeypatch.setattr(type(plugin), "decode_group", counting)
    device = SimulatedGpu(spec=V100)
    loader = DataLoader(
        ListSource(same * 2), plugin, batch_size=4, seed=1, graph=True,
        batched_fetch=True, device=device,
    )
    assert sum(len(t) for t, _ in loader.batches(0)) == 8
    assert sizes == [4, 4]
    scalar_launches = FROZEN_LAUNCHES.get(name, ([], []))[0]
    assert len(device.launches) == 2 * len(scalar_launches)
