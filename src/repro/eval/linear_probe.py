"""Linear probing of a frozen MAE encoder (paper Section V-C).

Protocol, following the paper and the MAE reference it cites:

- all pretrained weights frozen; a single linear classifier trains on
  the class-token features;
- LARS optimizer, base LR 0.1, no weight decay, cosine schedule;
- identical hyper-parameters across every model size and dataset;
- top-1 / top-5 accuracy recorded every epoch (paper Fig. 6) and at the
  end (paper Table III).

:func:`fit` is the one downstream training loop: the few-shot,
segmentation and fine-tune protocols are setups around it, and
:func:`check_split` is its door.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.data.datasets import SplitDataset
from repro.eval.features import extract_features, standardize_features
from repro.eval.metrics import topk_accuracy
from repro.models.layers import Linear
from repro.models.mae import MaskedAutoencoder
from repro.models.module import Module
from repro.optim.lars import LARS
from repro.optim.schedules import CosineWithWarmup

__all__ = ["LinearProbeResult", "linear_probe", "probe_features"]


@dataclass
class LinearProbeResult:
    """Per-epoch probe accuracies on the test split."""

    dataset: str
    model: str
    top1: list[float] = field(default_factory=list)
    top5: list[float] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)

    @property
    def final_top1(self) -> float:
        """Top-1 accuracy after the last probing epoch."""
        return self.top1[-1]

    @property
    def final_top5(self) -> float:
        """Top-5 accuracy after the last probing epoch."""
        return self.top5[-1]

    @property
    def best_top1(self) -> float:
        """Best top-1 accuracy across probing epochs."""
        return max(self.top1)


def softmax_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over every row of ``logits`` (``(..., C)``, labels
    ``(...)``) and its gradient w.r.t. ``logits``, in ``logits``' shape."""
    z = logits.reshape(-1, logits.shape[-1])
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows, y = np.arange(len(logp)), labels.reshape(-1)
    loss = -float(logp[rows, y].mean())
    grad = np.exp(logp)
    grad[rows, y] -= 1.0
    return loss, (grad / len(y)).reshape(logits.shape)


def check_split(n_rows: int, labels: np.ndarray, n_classes: int, epochs: int) -> None:
    """The door of :func:`fit`: refuse what would otherwise train silently
    wrong (labels that do not match the rows, a label outside
    ``[0, n_classes)``, which indexes the wrong class) or die late (an
    empty split, no epochs). Protocols call it before extracting."""
    if epochs <= 0:
        raise ValueError(f"epochs must be positive, got {epochs}")
    if n_rows == 0:
        raise ValueError("empty training split: nothing to fit")
    labels = np.asarray(labels)
    if len(labels) != n_rows:
        raise ValueError(f"{len(labels)} labels for {n_rows} training rows")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(
            f"labels span [{labels.min()}, {labels.max()}], outside [0, {n_classes})"
        )


def fit(
    module: Module,
    optimizer,
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    epochs: int,
    batch_size: int,
    base_lr: float,
    seed: int,
    order_salt: int,
    evaluate: Callable[[Module], None],
) -> list[float]:
    """The one downstream training loop; returns per-epoch mean losses.

    Minibatch softmax CE on ``module(x[idx])`` against ``y[idx]`` under a
    cosine schedule with a one-epoch warmup; each epoch visits the rows in
    the order seeded by ``(seed, order_salt, epoch)`` (a partial last batch
    is dropped) and ends with ``evaluate(module)``. Every protocol —
    linear probe, few-shot, segmentation probe, fine-tune — is a module,
    an optimizer, an order salt and an ``evaluate`` around this call.
    """
    check_split(len(x), y, n_classes, epochs)
    batch_size = min(batch_size, len(x))
    steps_per_epoch = max(1, len(x) // batch_size)
    schedule = CosineWithWarmup(
        base_lr=base_lr,
        total_steps=epochs * steps_per_epoch,
        warmup_steps=steps_per_epoch,
    )
    losses = []
    for epoch in range(epochs):
        order = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, order_salt, epoch]))
        ).permutation(len(x))
        epoch_losses = []
        for b in range(steps_per_epoch):
            idx = order[b * batch_size : (b + 1) * batch_size]
            loss, dlogits = softmax_ce(module(x[idx]), y[idx])
            module.zero_grad()
            module.backward(dlogits)
            optimizer.lr = schedule(epoch * steps_per_epoch + b)
            optimizer.step()
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)))
        evaluate(module)
    return losses


def probe_features(
    feats_train: np.ndarray,
    y_train: np.ndarray,
    feats_test: np.ndarray,
    y_test: np.ndarray,
    n_classes: int,
    epochs: int = 30,
    batch_size: int = 64,
    base_lr: float = 0.1,
    seed: int = 0,
    dataset: str = "",
    model_name: str = "",
) -> LinearProbeResult:
    """Train the linear head on cached features; evaluate each epoch."""
    check_split(len(feats_train), y_train, n_classes, epochs)
    ftr, fte = standardize_features(feats_train, feats_test)
    head = Linear(ftr.shape[1], n_classes)
    head.weight.data[...] = 0.0  # linear probes start from zero (MAE ref)
    opt = LARS([head.weight, head.bias], lr=base_lr, weight_decay=0.0)
    result = LinearProbeResult(dataset=dataset, model=model_name)

    def evaluate(module: Linear) -> None:
        logits = module(fte)
        result.top1.append(topk_accuracy(logits, y_test, k=1))
        result.top5.append(topk_accuracy(logits, y_test, k=min(5, n_classes)))

    result.train_losses = fit(
        head, opt, ftr, y_train, n_classes, epochs, batch_size, base_lr, seed,
        order_salt=13, evaluate=evaluate,
    )
    return result


def linear_probe(
    model: MaskedAutoencoder,
    data: SplitDataset,
    epochs: int = 30,
    batch_size: int = 64,
    base_lr: float = 0.1,
    seed: int = 0,
    model_name: str = "",
) -> LinearProbeResult:
    """Full paper protocol: extract frozen features, then probe them."""
    check_split(len(data.train.images), data.train.labels, data.spec.n_classes, epochs)
    feats_train = extract_features(model, data.train.images)
    feats_test = extract_features(model, data.test.images)
    return probe_features(
        feats_train,
        data.train.labels,
        feats_test,
        data.test.labels,
        n_classes=data.spec.n_classes,
        epochs=epochs,
        batch_size=batch_size,
        base_lr=base_lr,
        seed=seed,
        dataset=data.spec.name,
        model_name=model_name,
    )
