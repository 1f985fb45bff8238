"""Pipeline operators (the DALI operator analogue).

An operator transforms a :class:`PipelineItem` in place.  The standard
chain is ``Read → Decode(plugin) → [Augment] → [LabelTransform]``.  The
pipeline hands each operator a *group* of items (:meth:`Op.run_group`),
which is where a stage amortizes work across samples; assembling training
batches is the loader's job.  Every operator runs under the pipeline's
stopwatch so stage-level time attribution (Figures 9 and 12) is available
from functional runs, not only from the performance model.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.encoding.container import verify_sample
from repro.core.plugins.base import SamplePlugin
from repro.pipeline.sources import SampleSource, read_batch_slots

__all__ = [
    "PipelineItem",
    "Op",
    "ReadOp",
    "DecodeOp",
    "RandomFlipOp",
    "LabelTransformOp",
    "CastOp",
]


@dataclass
class PipelineItem:
    """State threaded through the operator chain for one sample."""

    index: int
    blob: bytes | None = None
    tensor: np.ndarray | None = None
    label: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


class Op(abc.ABC):
    """One pipeline stage.

    ``__call__`` transforms one item; :meth:`run_group` is what the
    pipeline actually invokes — a whole group of items at once, so a
    stage that can amortize work across samples (one batched fetch, one
    ``decode_group`` call) overrides it, and every other stage inherits
    the per-item loop.
    """

    #: stage name used for time attribution
    name: str = "op"

    @abc.abstractmethod
    def __call__(self, item: PipelineItem) -> PipelineItem: ...

    def run_group(self, items: list[PipelineItem]) -> list:
        """Run the stage over a group: one item *or* ``Exception`` per slot.

        Slot-isolated — a sample that raises comes back as its exception
        in its own slot and never sinks its group-mates.  Overrides must
        keep that contract and must treat a group of one exactly like
        ``__call__`` (scalar mode is a group of one).
        """
        out: list = []
        for item in items:
            try:
                out.append(self(item))
            except Exception as exc:  # noqa: BLE001 — slot-isolated by design
                out.append(exc)
        return out


class ReadOp(Op):
    """Fetch the container bytes for the item's index from a source.

    With ``verify=True`` the blob's container checksums are validated
    right after the read, so corruption surfaces as a
    :class:`~repro.core.encoding.container.CorruptSampleError` carrying
    the sample index — before the decoder can turn it into garbage.
    """

    name = "read"

    def __init__(self, source: SampleSource, verify: bool = False) -> None:
        self.source = source
        self.verify = verify

    def _accept(self, item: PipelineItem, blob) -> PipelineItem:
        if self.verify:
            verify_sample(blob, sample_id=item.index)
        item.blob = blob
        item.meta["stored_bytes"] = len(blob)
        return item

    def __call__(self, item: PipelineItem) -> PipelineItem:
        return self._accept(item, self.source.read(item.index))

    def run_group(self, items: list[PipelineItem]) -> list:
        """One batched fetch for the group, verified slot by slot."""
        if len(items) == 1:
            return super().run_group(items)
        out = list(
            read_batch_slots(self.source, [item.index for item in items])
        )
        for j, (item, slot) in enumerate(zip(items, out)):
            if not isinstance(slot, Exception):
                try:
                    out[j] = self._accept(item, slot)
                except Exception as exc:  # noqa: BLE001 — slot-isolated
                    out[j] = exc
        return out


class DecodeOp(Op):
    """Decode through the plugin's one method, ``decode_group``.

    ``func`` is the elementwise chain fused into the decode (compiled
    plans pass their composed fused steps; ``None`` is the plugin's
    native decode) and ``device`` the simulated GPU a GPU-placed plugin
    charges.
    """

    name = "decode"

    def __init__(self, plugin: SamplePlugin, func=None, device=None) -> None:
        self.plugin = plugin
        self.func = func
        self.device = device

    def __call__(self, item: PipelineItem) -> PipelineItem:
        if item.blob is None:
            raise ValueError("DecodeOp requires a ReadOp upstream")
        out = self.run_group([item])[0]
        if isinstance(out, Exception):
            raise out
        return out

    def run_group(self, items: list[PipelineItem]) -> list:
        """One ``decode_group`` call for the group; the plugin isolates
        each sample's failure in its own slot."""
        out = self.plugin.decode_group(
            [item.blob for item in items], self.func, self.device
        )
        for j, (item, slot) in enumerate(zip(items, out)):
            if not isinstance(slot, Exception):
                item.tensor, item.label = slot
                item.blob = None  # free the encoded form
                out[j] = item
        return out


class RandomFlipOp(Op):
    """Horizontal flip augmentation (DeepCAM-style), seeded per item.

    The flip is a view, not a copy — cheap on CPU, and the seed derives
    from (epoch, index) so reruns are bit-identical.
    """

    name = "augment"

    def __init__(self, probability: float = 0.5, flip_label: bool = True) -> None:
        if not 0 <= probability <= 1:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self.flip_label = flip_label

    def __call__(self, item: PipelineItem) -> PipelineItem:
        if item.tensor is None:
            raise ValueError("RandomFlipOp requires a decoded tensor")
        epoch = item.meta.get("epoch", 0)
        rng = np.random.default_rng((epoch << 32) ^ item.index)
        if rng.random() < self.probability:
            item.tensor = item.tensor[..., ::-1]
            if self.flip_label and item.label is not None and item.label.ndim >= 2:
                item.label = item.label[..., ::-1]
            item.meta["flipped"] = True
        return item


class LabelTransformOp(Op):
    """Apply a function to the label (e.g. CosmoFlow parameter scaling)."""

    name = "label"

    def __init__(self, func: Callable[[np.ndarray], np.ndarray]) -> None:
        self.func = func

    def __call__(self, item: PipelineItem) -> PipelineItem:
        if item.label is None:
            raise ValueError("LabelTransformOp requires a label")
        item.label = self.func(item.label)
        return item


class CastOp(Op):
    """Cast the tensor dtype (e.g. FP16 → FP32 for an FP32-only model)."""

    name = "cast"

    def __init__(self, dtype) -> None:
        self.dtype = np.dtype(dtype)

    def __call__(self, item: PipelineItem) -> PipelineItem:
        if item.tensor is None:
            raise ValueError("CastOp requires a decoded tensor")
        item.tensor = item.tensor.astype(self.dtype, copy=False)
        return item
