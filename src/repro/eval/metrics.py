"""Classification metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["topk_accuracy"]


def topk_accuracy(logits: np.ndarray, labels: np.ndarray, k: int = 1) -> float:
    """Fraction of rows whose true label is among the top-k logits.

    Ties are broken by class index (stable), matching the usual argsort
    convention: a label's rank is the number of strictly greater logits
    plus the number of equal logits at a lower index, and it is a hit
    when that rank is below ``k`` — O(N C) with no sort.
    """
    if logits.ndim != 2:
        raise ValueError(f"logits must be (N, C), got {logits.shape}")
    if len(logits) != len(labels):
        raise ValueError("logits/labels length mismatch")
    n, c = logits.shape
    if not 1 <= k <= c:
        raise ValueError(f"k={k} out of range for {c} classes")
    if n == 0:
        raise ValueError("empty batch")
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label out of class range")
    own = logits[np.arange(n), labels][:, None]
    earlier = np.arange(c) < labels[:, None]
    rank = (logits > own).sum(axis=1) + ((logits == own) & earlier).sum(axis=1)
    return float((rank < k).mean())
