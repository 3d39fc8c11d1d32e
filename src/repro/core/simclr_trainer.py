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
    each rank contrasts only against its *local* negatives, so runs at
    different world sizes optimize slightly different objectives (unlike
    the MAE trainer, whose loss is sample-separable). Sharding-strategy
    equivalence at a fixed world size still holds exactly.
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
