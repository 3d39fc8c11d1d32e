"""Pre-norm transformer encoder block (the ViT/MAE building unit).

``x = x + attn(ln1(x)); x = x + mlp(ln2(x))``

This block is also the FSDP *wrapping unit*: the sharding layer flattens
one block's parameters into one flat parameter, exactly like wrapping
``Block`` with ``transformer_auto_wrap_policy`` in the paper's setup.
"""

from __future__ import annotations

import numpy as np

from repro.models.attention import MultiHeadSelfAttention
from repro.models.layers import MLP, LayerNorm
from repro.models.module import DEFAULT_DTYPE, Module

__all__ = ["TransformerBlock"]


class TransformerBlock(Module):
    """One encoder block, optionally activation-checkpointed.

    With ``checkpoint=True`` the forward pass keeps only its *input*
    (dropping every intermediate cache) and the backward pass recomputes
    the forward first — the classic memory-for-compute trade the memory
    model (:mod:`repro.perf.memory_model`) prices, and what the paper's
    3B-on-one-GPU memory figures imply was enabled. Numerics are
    identical either way (tested).
    """

    # release_caches() deliberately does NOT drop _ckpt_input: it is the
    # one tensor checkpointing keeps. The pipeline stash still moves it.
    _cache_attrs = ("_ckpt_input",)
    _kept_on_release = ("_ckpt_input",)

    def __init__(
        self,
        width: int,
        heads: int,
        mlp: int,
        rng: np.random.Generator | None = None,
        dtype=DEFAULT_DTYPE,
        checkpoint: bool = False,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.ln1 = LayerNorm(width, dtype=dtype)
        self.attn = MultiHeadSelfAttention(width, heads, rng=rng, dtype=dtype)
        self.ln2 = LayerNorm(width, dtype=dtype)
        self.mlp = MLP(width, mlp, rng=rng, dtype=dtype)
        self.checkpoint = checkpoint
        self._ckpt_input: np.ndarray | None = None

    def _add(self, tag: str, x: np.ndarray, branch: np.ndarray) -> np.ndarray:
        """``x + branch`` into this block's ``tag`` buffer (both adds of a
        direction share it: nothing caches the first sum)."""
        out = self._buf(tag, branch.shape, np.result_type(x, branch))
        return np.add(x, branch, out=out)

    def _forward_impl(self, x: np.ndarray) -> np.ndarray:
        h = self._add("h", x, self.attn(self.ln1(x)))
        return self._add("h", h, self.mlp(self.ln2(h)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Pre-norm block forward (checkpointing-aware)."""
        if not self.checkpoint:
            return self._forward_impl(x)
        out = self._forward_impl(x)
        self._ckpt_input = x
        self.release_caches()  # keep only the block input
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Block backward through both residual branches (recomputes forward first when checkpointed)."""
        if self.checkpoint:
            if self._ckpt_input is None:
                raise RuntimeError("backward called before forward")
            # Recompute the forward to rebuild the sub-layer caches.
            self._forward_impl(self._ckpt_input)
            self._ckpt_input = None
        # Second residual: dout flows both directly and through mlp(ln2(.)).
        dx = self._add("dx", dout, self.ln2.backward(self.mlp.backward(dout)))
        # First residual.
        return self._add("dx", dx, self.ln1.backward(self.attn.backward(dx)))
