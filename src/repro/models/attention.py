"""Multi-head self-attention with a hand-derived backward pass.

Head split/merge are pure strided views of the ``(B, N, 3W)`` qkv
projection (zero copies), every contraction is a ``matmul``/``einsum``
with ``out=`` into workspace buffers, the softmax and its backward run
in place, and the 1/sqrt(d) scale is folded into ``q`` so no
``(B, H, N, N)``-sized scaling pass exists. The backward builds
``dqkv`` directly inside one preallocated ``(B, N, 3W)`` buffer instead
of concatenating per-head gradients. Only two tensors are cached
(``qkv`` and ``attn``) — q/k/v are recovered as views, halving peak
activation memory vs. caching the split heads. The textbook
implementation it must match (explicit head copies) is the oracle in
``tests/test_models/reference.py``.

Input/output shape ``(B, N, W)``. The attention matrix is materialized
(``(B, H, N, N)``) — fine at the proxy scales this substrate trains; the
*performance model* of the full-size variants accounts for the same
matmuls analytically.
"""

from __future__ import annotations

import numpy as np

from repro.models.layers import Linear
from repro.models.module import DEFAULT_DTYPE, Module

__all__ = ["MultiHeadSelfAttention"]


class MultiHeadSelfAttention(Module):
    """Standard ViT attention: one qkv projection, softmax, output proj."""

    _cache_attrs = ("_cache",)

    def __init__(
        self,
        width: int,
        heads: int,
        rng: np.random.Generator | None = None,
        dtype=DEFAULT_DTYPE,
    ):
        super().__init__()
        if width % heads != 0:
            raise ValueError(f"width {width} not divisible by heads {heads}")
        self.width = width
        self.heads = heads
        self.head_dim = width // heads
        self.scale = 1.0 / np.sqrt(self.head_dim)
        rng = rng if rng is not None else np.random.default_rng(0)
        # tp_shard: qkv is the column-parallel half of the megatron pair
        # (per-head column blocks), proj the row-parallel half.
        self.qkv = Linear(width, 3 * width, rng=rng, dtype=dtype, tp_shard=True)
        self.proj = Linear(width, width, rng=rng, dtype=dtype, tp_shard=True)
        self._cache = None

    def _qkv_views(
        self, qkv: np.ndarray, b: int, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """q/k/v as (B, H, N, Dh) strided views into the (B, N, 3W) buffer."""
        q5 = qkv.reshape(b, n, 3, self.heads, self.head_dim)
        return (
            q5[:, :, 0].transpose(0, 2, 1, 3),
            q5[:, :, 1].transpose(0, 2, 1, 3),
            q5[:, :, 2].transpose(0, 2, 1, 3),
        )

    # -- forward -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Attention over ``(B, N, W)`` tokens."""
        b, n, w = x.shape
        if w != self.width:
            raise ValueError(f"expected width {self.width}, got {w}")
        h = self.heads
        qkv = self.qkv(x)  # (B, N, 3W)
        q, k, v = self._qkv_views(qkv, b, n)
        # Fold the 1/sqrt(d) scale into q once (a (B, N, W)-sized pass)
        # instead of scaling the (B, H, N, N) score matrix.
        qkv.reshape(b, n, 3, w)[:, :, 0] *= self.scale
        scores = self._buf("scores", (b, h, n, n), qkv.dtype)
        np.matmul(q, k.transpose(0, 1, 3, 2), out=scores)
        # In-place softmax over the last axis.
        red = self._buf("red", (b, h, n, 1), qkv.dtype)
        np.max(scores, axis=-1, keepdims=True, out=red)
        np.subtract(scores, red, out=scores)
        np.exp(scores, out=scores)
        np.sum(scores, axis=-1, keepdims=True, out=red)
        scores /= red
        attn = scores
        # Context lands pre-merged: matmul writes through the transposed
        # view so ctx is (B, N, W) without a merge copy.
        ctx = self._buf("ctx", (b, n, h, self.head_dim), qkv.dtype)
        np.matmul(attn, v, out=ctx.transpose(0, 2, 1, 3))
        out = self.proj(ctx.reshape(b, n, w))
        self._cache = (qkv, attn, b, n)
        return out

    # -- backward ----------------------------------------------------------

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Hand-derived attention backward; returns d(input)."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        qkv, attn, b, n = self._cache
        self._cache = None
        h, d, w = self.heads, self.head_dim, self.width
        # Note: q below is already scaled by 1/sqrt(d) (folded in forward).
        qs, k, v = self._qkv_views(qkv, b, n)
        dctx = self.proj.backward(dout)  # (B, N, W)
        dctx4 = dctx.reshape(b, n, h, d).transpose(0, 2, 1, 3)
        dattn = self._buf("dattn", (b, h, n, n), dout.dtype)
        np.matmul(dctx4, v.transpose(0, 1, 3, 2), out=dattn)
        # dq/dk/dv are written straight into one (B, N, 3W) buffer via
        # transposed views — no per-head concatenation.
        dqkv = self._buf("dqkv", (b, n, 3 * w), dout.dtype)
        dq5 = dqkv.reshape(b, n, 3, h, d)
        np.matmul(
            attn.transpose(0, 1, 3, 2), dctx4,
            out=dq5[:, :, 2].transpose(0, 2, 1, 3),
        )
        # In-place softmax backward: dscores = attn * (dattn - rowsum).
        red = self._buf("dred", (b, h, n, 1), dout.dtype)
        np.einsum("bhnm,bhnm->bhn", dattn, attn, out=red[..., 0])
        np.subtract(dattn, red, out=dattn)
        np.multiply(dattn, attn, out=dattn)
        # dq picks up the folded scale explicitly; dk inherits it from qs.
        np.matmul(dattn, k, out=dq5[:, :, 0].transpose(0, 2, 1, 3))
        dqkv.reshape(b, n, 3, w)[:, :, 0] *= self.scale
        np.matmul(
            dattn.transpose(0, 1, 3, 2), qs,
            out=dq5[:, :, 1].transpose(0, 2, 1, 3),
        )
        return self.qkv.backward(dqkv)
