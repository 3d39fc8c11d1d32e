"""Naive reference kernels: the numerical oracle for the hot path.

These are the substrate's original (pre-optimization) implementations,
kept verbatim. They allocate freely, never write in place, and follow
the textbook formulas — which makes them slow, obviously correct, and
the ideal oracle: ``test_hotpath_equivalence.py`` asserts that the
buffer-aware kernels in :mod:`repro.models.functional` /
:mod:`repro.models.layers` / :mod:`repro.models.attention` match these
bit-for-bit-ish (atol=1e-6, observed ~1e-15), so an optimization can
never silently change training math. :class:`NaiveAttention` is the
textbook attention with explicit head split/merge copies, run over the
same parameters as the production module.

Do not optimize this module.
"""

from __future__ import annotations

import numpy as np

from repro.models.attention import MultiHeadSelfAttention

__all__ = [
    "NaiveAttention",
    "gelu",
    "gelu_backward",
    "softmax",
    "softmax_backward",
    "layernorm",
    "layernorm_backward",
    "linear_forward",
    "linear_backward",
]

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_GELU_C = 0.044715


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximated GELU. Returns ``(y, tanh_cache)``."""
    inner = _SQRT_2_OVER_PI * (x + _GELU_C * x**3)
    t = np.tanh(inner)
    y = 0.5 * x * (1.0 + t)
    return y, t


def gelu_backward(dout: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d/dx of tanh-GELU given the cached tanh value ``t``."""
    du = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_C * x * x)
    return dout * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(dout: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Backward of softmax given its output ``y``."""
    return y * (dout - (dout * y).sum(axis=axis, keepdims=True))


def layernorm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6
) -> tuple[np.ndarray, tuple]:
    """LayerNorm over the last axis. Returns ``(y, cache)``."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    y = xhat * gamma + beta
    return y, (xhat, inv_std)


def layernorm_backward(
    dout: np.ndarray, gamma: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of layernorm. Returns ``(dx, dgamma, dbeta)``."""
    xhat, inv_std = cache
    reduce_axes = tuple(range(dout.ndim - 1))
    dgamma = (dout * xhat).sum(axis=reduce_axes)
    dbeta = dout.sum(axis=reduce_axes)
    dxhat = dout * gamma
    dx = (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    ) * inv_std
    return dx, dgamma, dbeta


def linear_forward(
    weight: np.ndarray, bias: np.ndarray | None, x: np.ndarray
) -> np.ndarray:
    """``x @ W (+ b)`` exactly as the original Linear computed it
    (stacked batched matmul, fresh output)."""
    y = x @ weight
    if bias is not None:
        y = y + bias
    return y


def linear_backward(
    weight: np.ndarray, x: np.ndarray, dout: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(dx, dweight, dbias)`` for the reference linear."""
    in_features, out_features = weight.shape
    x2 = x.reshape(-1, in_features)
    d2 = dout.reshape(-1, out_features)
    dweight = x2.T @ d2
    dbias = d2.sum(axis=0)
    dx = dout @ weight.T
    return dx, dweight, dbias


class NaiveAttention(MultiHeadSelfAttention):
    """The original attention forward / backward over the same
    parameters; caches q/k/v/attn and copies every head split and merge."""

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(B, N, W) -> (B, H, N, Dh)."""
        b, n, _ = x.shape
        return x.reshape(b, n, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        """(B, H, N, Dh) -> (B, N, W)."""
        b, h, n, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, n, h * d)

    def forward(self, x: np.ndarray) -> np.ndarray:
        qkv = linear_forward(self.qkv.weight.data, self.qkv.bias.data, x)
        q, k, v = (self._split_heads(t) for t in np.split(qkv, 3, axis=-1))
        scores = (q @ k.transpose(0, 1, 3, 2)) * self.scale  # (B, H, N, N)
        attn = softmax(scores, axis=-1)
        ctx = attn @ v  # (B, H, N, Dh)
        merged = self._merge_heads(ctx)
        out = linear_forward(self.proj.weight.data, self.proj.bias.data, merged)
        self._cache = (x, merged, q, k, v, attn)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, merged, q, k, v, attn = self._cache
        self._cache = None
        dm, dwp, dbp = linear_backward(self.proj.weight.data, merged, dout)
        self.proj.weight.accumulate(dwp)
        self.proj.bias.accumulate(dbp)
        dctx = self._split_heads(dm)  # (B, H, N, Dh)
        dattn = dctx @ v.transpose(0, 1, 3, 2)  # (B, H, N, N)
        dv = attn.transpose(0, 1, 3, 2) @ dctx  # (B, H, N, Dh)
        dscores = softmax_backward(dattn, attn) * self.scale
        dq = dscores @ k
        dk = dscores.transpose(0, 1, 3, 2) @ q
        dqkv = np.concatenate(
            [self._merge_heads(t) for t in (dq, dk, dv)], axis=-1
        )
        dx, dwqkv, dbqkv = linear_backward(self.qkv.weight.data, x, dqkv)
        self.qkv.weight.accumulate(dwqkv)
        self.qkv.bias.accumulate(dbqkv)
        return dx
