"""Patch-level semantic-segmentation probing (paper future work).

Protocol, mirroring the linear-probe philosophy: the pretrained encoder
is frozen; a single linear classifier maps each *patch token* to a
land-cover-family label; quality is mean intersection-over-union (mIoU)
and patch accuracy on held-out scenes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.segmentation import SegmentationDataset
from repro.eval.features import _encode_batched, standardize_features
from repro.eval.linear_probe import check_split, fit
from repro.models.layers import Linear
from repro.models.mae import MaskedAutoencoder
from repro.optim.lars import LARS

__all__ = ["SegProbeResult", "mean_iou", "segmentation_probe"]


def mean_iou(pred: np.ndarray, target: np.ndarray, n_classes: int) -> float:
    """Mean IoU over the classes present in ``target`` or ``pred``."""
    pred = np.asarray(pred).reshape(-1)
    target = np.asarray(target).reshape(-1)
    if pred.shape != target.shape:
        raise ValueError("pred/target shape mismatch")
    ious = []
    for c in range(n_classes):
        p = pred == c
        t = target == c
        union = np.logical_or(p, t).sum()
        if union == 0:
            continue  # class absent everywhere: skip, as is conventional
        ious.append(np.logical_and(p, t).sum() / union)
    if not ious:
        raise ValueError("no classes present")
    return float(np.mean(ious))


@dataclass
class SegProbeResult:
    model: str
    miou: list[float] = field(default_factory=list)  # per epoch
    patch_acc: list[float] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)

    @property
    def final_miou(self) -> float:
        """mIoU after the last probing epoch."""
        return self.miou[-1]

    @property
    def final_patch_acc(self) -> float:
        """Patch accuracy after the last probing epoch."""
        return self.patch_acc[-1]


def segmentation_probe(
    model: MaskedAutoencoder,
    train: SegmentationDataset,
    test: SegmentationDataset,
    epochs: int = 20,
    batch_size: int = 16,
    base_lr: float = 0.1,
    seed: int = 0,
    model_name: str = "",
) -> SegProbeResult:
    """Train a frozen-feature per-patch linear classifier; report mIoU.

    Minibatches are whole images (all of an image's patch tokens)."""
    check_split(len(train.images), train.patch_labels, train.n_classes, epochs)
    if train.patch != test.patch:
        raise ValueError("train/test patch sizes differ")
    tokens_tr = _encode_batched(model.encode_patch_tokens, train.images, 32)  # (N, P, W)
    tokens_te = _encode_batched(model.encode_patch_tokens, test.images, 32)
    # Standardize with train statistics, flattened over patches.
    w = tokens_tr.shape[-1]
    flat_tr, flat_te = standardize_features(tokens_tr.reshape(-1, w), tokens_te.reshape(-1, w))
    head = Linear(w, train.n_classes)
    head.weight.data[...] = 0.0
    opt = LARS([head.weight, head.bias], lr=base_lr, weight_decay=0.0)
    result = SegProbeResult(model=model_name)
    target = test.patch_labels.reshape(-1)

    def evaluate(module: Linear) -> None:
        pred = module(flat_te).argmax(axis=1)
        result.miou.append(mean_iou(pred, target, train.n_classes))
        result.patch_acc.append(float((pred == target).mean()))

    result.train_losses = fit(
        head, opt, flat_tr.reshape(tokens_tr.shape), train.patch_labels, train.n_classes,
        epochs, batch_size, base_lr, seed, order_salt=29, evaluate=evaluate,
    )
    return result
