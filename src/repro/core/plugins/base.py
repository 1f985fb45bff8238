"""Plugin API for sample encode/decode in the data-loading pipeline.

Mirrors the role of the paper's DALI plugins (§VI): a plugin owns the
on-disk representation of a sample and produces, at load time, the tensor
the framework trains on — with the decode placed either on the **CPU** or
offloaded to the **GPU** ("we implemented two variants for decoding … one
for the CPU and another for the GPU").  "Decoding" deliberately includes the
fused preprocessing (normalization, ``log``, FP16 cast), which is the
paper's central reordering idea.

A plugin implements exactly one decode method, :meth:`SamplePlugin.
decode_group`.  The scalar, native and strict-batch entry points derive
from it, the post-decode chain is stated once as data
(:attr:`SamplePlugin.steps`), and the simulated GPU only keeps accounts:
both placements run the same host decoder, and a GPU-placed plugin
charges the device from its pure ``kernel_cost`` formulas.

A plugin also reports :class:`SampleCost` — the byte/element accounting the
discrete-event performance model consumes, so the functional path and the
performance path stay consistent by construction.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.accel.device import V100, SimulatedGpu
from repro.core.encoding import container

__all__ = ["SamplePlugin", "SampleCost", "FusedStep", "compose_steps"]


@dataclass(frozen=True)
class SampleCost:
    """Per-sample data-movement/compute footprint for the performance model.

    Attributes
    ----------
    stored_bytes:
        Bytes read from storage per sample (the encoded/container size).
    h2d_bytes:
        Bytes crossing the CPU→GPU link per sample.  For GPU-placed decoders
        this equals ``stored_bytes`` (encoded form travels); for CPU-placed
        decoders it is the decoded tensor size.
    decoded_bytes:
        Size of the tensor handed to the framework.
    cpu_preprocess_elems:
        Elements the CPU touches per sample (decode + preprocessing) — 0 for
        a pure GPU-placed plugin.
    gpu_decode_seconds:
        Modeled device time of the decode kernel(s) on the reference GPU;
        0 when decode runs on the CPU.
    """

    stored_bytes: int
    h2d_bytes: int
    decoded_bytes: int
    cpu_preprocess_elems: int
    gpu_decode_seconds: float = 0.0


@dataclass(frozen=True)
class FusedStep:
    """One elementwise stage of a post-decode chain.

    A plugin states its own chain as a tuple of these
    (:attr:`SamplePlugin.steps`); the graph optimizer's fusion pass builds
    the same tuple from declared elementwise nodes.  ``cost_hint`` carries
    the stage's per-sample cost; the plan cost model charges it scaled by
    the decode's ``fused_cost_hint``.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray] | None = None
    out_dtype: np.dtype | None = None
    cost_hint: float = 1.0


def compose_steps(
    steps: Sequence[FusedStep],
) -> Callable[[np.ndarray], np.ndarray] | None:
    """One callable applying each step's func and cast in order.

    Applied to LUT table values or to a decoded tensor, the result is
    element-for-element the same float operations the separate stages
    would run — which is why fusion is bit-exact.  No steps is no chain
    (``None``).  The callable's ``casts_only`` flag says no step computes
    anything: a representation that folds the chain into its tables then
    converts during the gather instead of paying a table pass.
    """
    if not steps:
        return None
    steps = tuple(steps)

    def composed(arr: np.ndarray) -> np.ndarray:
        out = arr
        for s in steps:
            if s.func is not None:
                out = s.func(out)
            if s.out_dtype is not None:
                out = np.asarray(out).astype(s.out_dtype, copy=False)
        return out

    composed.casts_only = all(s.func is None for s in steps)
    return composed


def _each(fn, slots) -> list:
    """``fn`` over every slot holding a value; failures stay in their slot."""
    out = []
    for slot in slots:
        if not isinstance(slot, Exception):
            try:
                slot = fn(slot)
            except Exception as exc:  # noqa: BLE001 — slot-isolated by design
                slot = exc
        out.append(slot)
    return out


def _strict(slots: list) -> list:
    """The slots' values, raising the first failed slot."""
    for slot in slots:
        if isinstance(slot, Exception):
            raise slot
    return slots


class SamplePlugin(abc.ABC):
    """One sample representation + its encode/decode pair.

    Subclasses implement :meth:`encode`, :meth:`decode_group` and
    :meth:`measure`; :meth:`decode`, :meth:`decode_raw` and
    :meth:`decode_batch` derive from :meth:`decode_group`.
    """

    #: short identifier used in experiment tables ("base", "cpu", "gpu", …)
    name: str = "plugin"
    #: "cpu" or "gpu" — where decode (incl. fused preprocessing) runs
    placement: str = "cpu"
    #: container codec the default :meth:`_unpack` accepts
    codec: str = "raw"
    #: the post-decode elementwise chain, stated once as data: :meth:`decode`
    #: fuses it into :meth:`decode_group`, :meth:`declare_preprocessing`
    #: declares it node by node for the optimizer to fuse again
    steps: tuple[FusedStep, ...] = ()
    #: name of the declared graph (default: :attr:`name`)
    graph_name: str | None = None
    #: the declared decode node's ``fused_cost_hint`` (see ``OpAttrs``)
    fused_cost_hint: float = 1.0

    @abc.abstractmethod
    def encode(self, data: np.ndarray, label: np.ndarray) -> bytes:
        """Serialize one sample to its container bytes."""

    @abc.abstractmethod
    def decode_group(
        self, blobs, func=None, device: SimulatedGpu | None = None
    ) -> list:
        """Decode a group of blobs: one ``(tensor, label)`` *or* the
        ``Exception`` it raised per blob, in order.

        Slot-isolated — a blob that fails comes back as its exception in
        its own slot, and every other blob is unpacked and decoded once —
        and a group of one is the scalar decode.  ``func`` is the
        composed elementwise chain (:func:`compose_steps`), applied bit
        for bit as if it ran after the native decode; ``None`` is the
        native tensor.  ``device`` is the simulated GPU a GPU-placed
        plugin charges (:meth:`_charge`); results never depend on it.
        """

    def decode(
        self, blob: bytes, device: SimulatedGpu | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode one blob through the plugin's own chain (:attr:`steps`)."""
        chain = compose_steps(self.steps)
        return _strict(self.decode_group([blob], chain, device))[0]

    def decode_raw(
        self, blob: bytes, device: SimulatedGpu | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode one blob to the representation's native tensor."""
        return _strict(self.decode_group([blob], None, device))[0]

    def decode_batch(
        self, blobs, device: SimulatedGpu | None = None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """:meth:`decode` of several blobs, raising the first failure."""
        chain = compose_steps(self.steps)
        return _strict(self.decode_group(list(blobs), chain, device))

    # ------------------------------------------------------------------
    # what decode_group implementations share
    # ------------------------------------------------------------------

    def _unpack(self, blob: bytes):
        """``(payload, label)`` of a blob holding a :attr:`codec` container."""
        codec, payload, label, _ = container.unpack_sample(blob)
        if codec != self.codec:
            raise ValueError(
                f"{type(self).__name__} got a {codec!r} container"
            )
        return payload, label

    def _decode_slots(
        self, blobs, device, one, many=None, cost=None, post=None
    ) -> list:
        """The body of a :meth:`decode_group`, stage by stage, per slot.

        Every blob is unpacked once (:meth:`_unpack`).  ``many`` decodes
        all of a group's payloads in one vectorized pass when there is
        more than one; if it raises (mixed shapes), ``one`` decodes them
        payload by payload.  ``cost(payload, tensor, spec)`` is the
        plugin's kernel-cost formula, charged by :meth:`_charge`, and
        ``post`` is a chain applied as one pass over each tensor.
        """
        unpacked = _each(self._unpack, blobs)
        payloads = _each(lambda pair: pair[0], unpacked)
        good = [p for p in payloads if not isinstance(p, Exception)]
        tensors = None
        if many is not None and len(good) > 1:
            try:
                decoded = iter(many(good))
            except Exception:  # noqa: BLE001 — decoded one by one below
                pass
            else:
                tensors = [
                    p if isinstance(p, Exception) else next(decoded)
                    for p in payloads
                ]
        if tensors is None:
            tensors = _each(one, payloads)
        if cost is not None:
            self._charge(device, lambda spec: [
                cost(payload, tensor, spec)
                for payload, tensor in zip(payloads, tensors)
                if not isinstance(tensor, Exception)
            ])
        if post is not None:
            tensors = _each(post, tensors)
        return [
            t if isinstance(t, Exception) else (t, pair[1])
            for t, pair in zip(tensors, unpacked)
        ]

    def _charge(self, device: SimulatedGpu | None, costs) -> None:
        """Charge ``device`` for a decoded group, if the plugin is GPU-placed.

        ``costs(spec)`` lists each decoded sample's launches ``(name,
        bytes_moved, flops, seconds)`` (``seconds`` ``None``: the device's
        roofline).  A group's same-name launches merge into one — bytes,
        flops and modeled seconds add up — so a batched decode amortizes
        launches, never modeled work.
        """
        if device is not None and self.placement == "gpu":
            merged: dict = {}
            for launches in costs(device.spec):
                for name, moved, flops, seconds in launches:
                    if name in merged:
                        m_moved, m_flops, m_seconds = merged[name]
                        moved, flops = m_moved + moved, m_flops + flops
                        if seconds is not None:
                            seconds += m_seconds
                    merged[name] = (moved, flops, seconds)
            for name, (moved, flops, seconds) in merged.items():
                device.charge(name, moved, flops, seconds)

    def _gpu_cost(self, blob: bytes, decoded_bytes: int) -> SampleCost | None:
        """The cost of decoding ``blob`` on the reference GPU (V100): the
        encoded form crosses the link and the device decodes.  ``None``
        when the decode charges no device (CPU placement, raw payloads)."""
        device = SimulatedGpu(spec=V100)
        self.decode(blob, device)
        if not device.launches:
            return None
        return SampleCost(
            stored_bytes=len(blob),
            h2d_bytes=len(blob),
            decoded_bytes=decoded_bytes,
            cpu_preprocess_elems=0,
            gpu_decode_seconds=device.busy_seconds,
        )

    # ------------------------------------------------------------------
    # preprocessing-graph hook (repro.graph)
    # ------------------------------------------------------------------

    def declare_preprocessing(self, source, verify_reads: bool = False):
        """Declare ``read → decode → steps`` as an optimizable graph.

        The decode node is the native decode and each of :attr:`steps` is
        an elementwise node, so the optimizer's fusion pass re-derives
        the fused decode :meth:`decode` runs instead of special-casing it.
        """
        from repro.graph.ir import PipelineGraph

        graph = PipelineGraph(name=self.graph_name or self.name)
        graph.read(source, verify=verify_reads)
        graph.decode(self, fused_cost_hint=self.fused_cost_hint)
        for step in self.steps:
            graph.elementwise(
                step.name, step.func, step.out_dtype, cost_hint=step.cost_hint
            )
        return graph

    @abc.abstractmethod
    def measure(self, data: np.ndarray, label: np.ndarray) -> SampleCost:
        """Encode one representative sample and report its cost footprint."""
