"""API hygiene: every public item is documented and importable.

A release-quality library documents its public surface; this test walks
every module under ``repro`` and asserts that each public module, class,
and function carries a docstring, and that ``__all__`` (where declared)
only names things that exist.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _walk_modules():
    mods = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        mods.append(importlib.import_module(info.name))
    return mods


MODULES = _walk_modules()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module.__name__}.__all__: {name}"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_callables_documented(module):
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            # only enforce for items defined in this package
            if (getattr(obj, "__module__", "") or "").startswith("repro"):
                assert obj.__doc__ and obj.__doc__.strip(), (
                    f"{module.__name__}.{name} lacks a docstring"
                )


def test_package_exports_match_layout():
    import repro.core
    import repro.datasets
    import repro.storage
    import repro.pipeline
    import repro.accel
    import repro.ml
    import repro.simulate
    import repro.experiments

    for name in repro.__all__:
        importlib.import_module(f"repro.{name}")


def _classes():
    seen = set()
    for module in MODULES:
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__.startswith("repro"):
                seen.add(obj)
    return sorted(seen, key=lambda c: (c.__module__, c.__qualname__))


def test_one_read_contract():
    """``read`` + optional ``read_batch_slots``; strict is a function.

    No class may bring back a strict ``read_batch`` *method* (the module
    function ``repro.pipeline.sources.read_batch`` derives it once), and
    a class offering the batch method must be a whole source.
    """
    batch_native = []
    for cls in _classes():
        assert not hasattr(cls, "read_batch"), (
            f"{cls.__module__}.{cls.__qualname__} defines a read_batch method"
        )
        if hasattr(cls, "read_batch_slots"):
            batch_native.append(cls.__qualname__)
            assert hasattr(cls, "read") and hasattr(cls, "__len__"), (
                f"{cls.__module__}.{cls.__qualname__} has read_batch_slots "
                f"but is not a full source"
            )
    assert "TfRecordSource" in batch_native and "TieredSource" in batch_native


def test_one_decode_contract():
    """Plugins implement ``decode_group`` and nothing else to decode.

    No class brings back a per-placement or fused decode method, no
    plugin overrides the scalar/native/strict-batch entry points derived
    once on ``SamplePlugin`` (``PipelineGraph.decode`` declares a graph
    node and is no decode), and the decode kernels that re-ran the host
    decoders are gone.
    """
    from repro.core.plugins.base import SamplePlugin

    plugins = []
    for cls in _classes():
        for name in ("decode_cpu", "decode_gpu", "decode_fused"):
            assert not hasattr(cls, name), (
                f"{cls.__module__}.{cls.__qualname__} defines {name}"
            )
        if issubclass(cls, SamplePlugin) and cls is not SamplePlugin:
            plugins.append(cls.__qualname__)
            assert "decode_group" in vars(cls), cls.__qualname__
            for name in ("decode", "decode_raw", "decode_batch"):
                assert name not in vars(cls), (
                    f"{cls.__module__}.{cls.__qualname__} overrides {name}"
                )
    assert len(plugins) == 5
    with pytest.raises(ImportError):
        importlib.import_module("repro.accel.kernels")
