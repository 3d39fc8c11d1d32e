"""Stateless numeric primitives with paired backward functions.

Every kernel here is *single-pass and buffer-aware*: it computes through
in-place ufunc chains (one pass per logical term, no expression-tree
temporaries) and accepts optional ``out=`` buffers, which is how a layer
holding a :class:`~repro.models.workspace.Workspace` keeps a steady-state
step free of activation-sized allocations (``test_steady_state.py``).
Without ``out`` the kernels allocate their results like plain functions.

The original allocating implementations live on as the oracle in
``tests/test_models/reference.py``; the equivalence tests assert these
kernels agree with them to float rounding.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gelu",
    "gelu_backward",
    "layernorm",
    "layernorm_backward",
]

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_GELU_C = 0.044715


def gelu(
    x: np.ndarray,
    out: np.ndarray | None = None,
    t_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximated GELU (the variant in the original ViT/MAE code).

    Returns ``(y, cache)`` where cache holds the inner tanh for backward.
    ``out``/``t_out`` receive ``y`` and the tanh cache when given.
    """
    t = t_out if t_out is not None else np.empty_like(x)
    y = out if out is not None else np.empty_like(x)
    # t = tanh(sqrt(2/pi) * x * (1 + c x^2)), built without temporaries.
    np.multiply(x, x, out=t)
    t *= _GELU_C
    t += 1.0
    t *= x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    # y = 0.5 x (1 + t)
    np.add(t, 1.0, out=y)
    y *= x
    y *= 0.5
    return y, t


def gelu_backward(
    dout: np.ndarray,
    x: np.ndarray,
    t: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """d/dx of tanh-GELU given the cached tanh value ``t``."""
    # y = 0.5 x (1 + tanh(u)), u = c1 (x + c2 x^3)
    # dy/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c1 (1 + 3 c2 x^2)
    g = out if out is not None else np.empty_like(x)
    tmp = scratch if scratch is not None else np.empty_like(x)
    # g = du = c1 (1 + 3 c2 x^2)
    np.multiply(x, x, out=g)
    g *= 3.0 * _GELU_C
    g += 1.0
    g *= _SQRT_2_OVER_PI
    # tmp = 0.5 x (1 - t^2) * du
    np.multiply(t, t, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    tmp *= x
    tmp *= 0.5
    tmp *= g
    # g = 0.5 (1 + t) + tmp, then scale by dout
    np.add(t, 1.0, out=g)
    g *= 0.5
    g += tmp
    g *= dout
    return g


def layernorm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-6,
    out: np.ndarray | None = None,
    xhat_out: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple]:
    """LayerNorm over the last axis. Returns ``(y, cache)``.

    ``xhat_out``, when given, receives the normalized-input cache that
    backward consumes (it must stay intact until then).
    """
    xhat = xhat_out if xhat_out is not None else np.empty_like(x)
    y = out if out is not None else np.empty_like(x)
    mu = x.mean(axis=-1, keepdims=True)
    np.subtract(x, mu, out=xhat)  # xc
    np.multiply(xhat, xhat, out=y)  # y as scratch: xc^2
    var = y.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y, (xhat, inv_std)


def layernorm_backward(
    dout: np.ndarray,
    gamma: np.ndarray,
    cache: tuple,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of layernorm. Returns ``(dx, dgamma, dbeta)``."""
    xhat, inv_std = cache
    dxhat = scratch if scratch is not None else np.empty_like(dout)
    dx = out if out is not None else np.empty_like(dout)
    np.multiply(dout, gamma, out=dxhat)
    # dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv_std
    np.multiply(dxhat, xhat, out=dx)  # dx as scratch: dxhat * xhat
    m2 = dx.mean(axis=-1, keepdims=True)
    m1 = dxhat.mean(axis=-1, keepdims=True)
    np.multiply(xhat, m2, out=dx)
    np.subtract(dxhat, dx, out=dx)
    dx -= m1
    dx *= inv_std
    # Parameter gradients; dxhat is dead now, reuse it for dout * xhat.
    reduce_axes = tuple(range(dout.ndim - 1))
    np.multiply(dout, xhat, out=dxhat)
    dgamma = dxhat.sum(axis=reduce_axes)
    dbeta = dout.sum(axis=reduce_axes)
    return dx, dgamma, dbeta
