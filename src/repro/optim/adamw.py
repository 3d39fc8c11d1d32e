"""AdamW (decoupled weight decay), matching ``torch.optim.AdamW``.

The paper pretrains with AdamW at base LR 1.5e-4 and weight decay 0.05
(Section V-B). Update order follows PyTorch exactly (decay applied to the
parameter before the Adam step, bias-corrected moments) so that loss
trajectories are comparable step-for-step across engines.
"""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer, ParamLike

__all__ = ["AdamW"]


class AdamW(Optimizer):
    def __init__(
        self,
        params,
        lr: float = 1.5e-4,
        betas: tuple[float, float] = (0.9, 0.95),
        eps: float = 1e-8,
        weight_decay: float = 0.05,
    ):
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.weight_decay = weight_decay
        # Two rows of scratch for _update's temporaries, grown to the
        # largest slot on first use. Not optimizer state: excluded from
        # state_bytes() and state_dict().
        self._scratch = np.empty((2, 0), dtype=np.float64)

    def _update(self, p: ParamLike, state: dict[str, np.ndarray]) -> None:
        if "m" not in state:
            state["m"] = np.zeros_like(p.data)
            state["v"] = np.zeros_like(p.data)
        m, v = state["m"], state["v"]
        g = p.grad
        if self._scratch.shape[1] < g.size or self._scratch.dtype != g.dtype:
            self._scratch = np.empty((2, g.size), g.dtype)
        t1, t2 = (row[: g.size].reshape(g.shape) for row in self._scratch)
        # Decoupled weight decay (multiplicative shrink, as in PyTorch).
        if self.weight_decay:
            p.data *= 1.0 - self.lr * self.weight_decay
        # The textbook expressions, each temporary written into scratch:
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
        # p -= (lr/bc1)*m / (sqrt(v/bc2) + eps)
        m *= self.b1
        np.multiply(g, 1.0 - self.b1, out=t1)
        m += t1
        v *= self.b2
        np.multiply(g, 1.0 - self.b2, out=t1)
        t1 *= g
        v += t1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        np.divide(v, bc2, out=t1)
        np.sqrt(t1, out=t1)
        t1 += self.eps
        np.multiply(m, self.lr / bc1, out=t2)
        t2 /= t1
        p.data -= t2
