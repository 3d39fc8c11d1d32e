"""The ``out=``-aware softmax pair, in the style of
:mod:`repro.models.functional`.

No model calls it: attention runs its softmax and softmax backward in
place over its own workspace buffers. It stays here with its gradient
checks and its equivalence test against the oracle in ``reference.py``.
"""

from __future__ import annotations

import numpy as np


def softmax(
    x: np.ndarray, axis: int = -1, out: np.ndarray | None = None
) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (in place when ``out is x``)."""
    y = out if out is not None else np.empty_like(x)
    mx = x.max(axis=axis, keepdims=True)
    np.subtract(x, mx, out=y)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y


def softmax_backward(
    dout: np.ndarray,
    y: np.ndarray,
    axis: int = -1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Backward of softmax given its output ``y`` (in place when ``out is dout``)."""
    dx = out if out is not None else np.empty_like(y)
    if axis in (-1, y.ndim - 1):
        # Single-pass reduction: no (dout * y)-sized temporary.
        s = np.einsum("...i,...i->...", dout, y)[..., None]
    else:
        s = (dout * y).sum(axis=axis, keepdims=True)
    np.subtract(dout, s, out=dx)
    dx *= y
    return dx
