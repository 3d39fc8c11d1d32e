"""Contrastive (SimCLR) pretraining: an objective on the shared loop.

:class:`~repro.core.trainer.Pretrainer` drives any engine through
NT-Xent pretraining, with augmentations a pure function of (seed, step)
so distributed runs stay equivalent to the single-process reference,
exactly like the MAE objective.
"""

from __future__ import annotations

import numpy as np

from repro.core.trainer import Pretrainer
from repro.data.transforms import augment_view
from repro.models.simclr import SimCLRModel

__all__ = ["SimCLRPretrainer"]


def _simclr_step_fn(model: SimCLRModel, micro) -> float:
    view_a, view_b = micro
    out = model.forward(view_a, view_b)
    model.backward()
    return out.loss


class SimCLRPretrainer(Pretrainer):
    """Contrastive pretraining over an image corpus: a micro is two
    augmented views of the same images.

    Distributed note: like real SimCLR without an embedding all-gather,
    each micro-batch contrasts only against its *own* negatives, so runs
    with different micro counts (``data_parallel_size *
    grad_accum_steps``) optimize slightly different objectives (unlike
    the MAE trainer, whose loss is sample-separable). Runs with the same
    micro count — any strategy, and any world size that keeps the
    :class:`~repro.elastic.layout.ReductionLayout`, as a resumed resize
    does — are bit-identical.
    """

    model_type = SimCLRModel
    step_fn = staticmethod(_simclr_step_fn)
    min_micro = 2
    workspace_default = False

    def _batch(self, imgs: np.ndarray, step: int) -> tuple[np.ndarray, ...]:
        return (
            augment_view(imgs, self._rng(311, step)),
            augment_view(imgs, self._rng(313, step)),
        )
