"""SGD with momentum and optional (coupled) weight decay.

No program trains with it; tests use it as the simplest optimizer on
the shared :class:`~repro.optim.base.Optimizer` base.
"""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer, ParamLike

__all__ = ["SGD"]


class SGD(Optimizer):
    def __init__(
        self,
        params,
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay

    def _update(self, p: ParamLike, state: dict[str, np.ndarray]) -> None:
        g = p.grad
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        if self.momentum:
            if "mu" not in state:
                state["mu"] = np.zeros_like(p.data)
            mu = state["mu"]
            mu *= self.momentum
            mu += g
            g = mu
        p.data -= self.lr * g
