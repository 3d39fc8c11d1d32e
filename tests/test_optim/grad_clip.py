"""Global-norm gradient clipping (``torch.nn.utils.clip_grad_norm_``).

No program clips gradients; the helper lives here with its tests.
"""

from __future__ import annotations

import numpy as np

__all__ = ["global_grad_norm", "clip_grad_norm"]


def global_grad_norm(params) -> float:
    """L2 norm over the concatenation of all parameter gradients."""
    total = 0.0
    for p in params:
        g = p.grad
        total += float(np.vdot(g, g).real)
    return float(np.sqrt(total))


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale all gradients so the global norm is at most ``max_norm``.

    Returns the pre-clip norm (as PyTorch does).
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    params = list(params)
    norm = global_grad_norm(params)
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            p.grad *= scale
    return norm
