"""Patchify / unpatchify and the linear patch embedding.

``patchify`` turns ``(B, C, H, W)`` images into ``(B, N, p*p*C)`` flattened
patch rows (row-major patch order, channel-last inside each patch exactly
like the MAE reference's einops rearrange). Both directions are pure
reshape/transpose — views plus one final copy (into a C-contiguous
``out=`` when given), no Python loops.
"""

from __future__ import annotations

import numpy as np

from repro.models.layers import Linear
from repro.models.module import DEFAULT_DTYPE, Module

__all__ = ["patchify", "unpatchify", "PatchEmbed"]


def patchify(imgs: np.ndarray, patch: int, out: np.ndarray | None = None) -> np.ndarray:
    """(B, C, H, W) -> (B, N, patch*patch*C)."""
    b, c, h, w = imgs.shape
    if h % patch or w % patch:
        raise ValueError(f"image {h}x{w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    x = imgs.reshape(b, c, gh, patch, gw, patch)
    # -> (B, gh, gw, patch, patch, C), then flatten patches.
    x = x.transpose(0, 2, 4, 3, 5, 1)
    if out is None:
        return x.reshape(b, gh * gw, patch * patch * c)
    np.copyto(out.reshape(x.shape), x)
    return out


def unpatchify(
    patches: np.ndarray, patch: int, in_chans: int = 3, out: np.ndarray | None = None
) -> np.ndarray:
    """(B, N, patch*patch*C) -> (B, C, H, W); inverse of :func:`patchify`."""
    b, n, d = patches.shape
    if d != patch * patch * in_chans:
        raise ValueError(
            f"patch dim {d} != patch*patch*chans = {patch * patch * in_chans}"
        )
    g = int(round(np.sqrt(n)))
    if g * g != n:
        raise ValueError(f"patch count {n} is not a perfect square")
    x = patches.reshape(b, g, g, patch, patch, in_chans)
    x = x.transpose(0, 5, 1, 3, 2, 4)
    if out is None:
        return x.reshape(b, in_chans, g * patch, g * patch)
    np.copyto(out.reshape(x.shape), x)
    return out


class PatchEmbed(Module):
    """Patchify + linear projection to the model width."""

    def __init__(
        self,
        patch: int,
        in_chans: int,
        width: int,
        rng: np.random.Generator | None = None,
        dtype=DEFAULT_DTYPE,
    ):
        super().__init__()
        self.patch = patch
        self.in_chans = in_chans
        self.proj = Linear(patch * patch * in_chans, width, rng=rng, dtype=dtype)

    def forward(self, imgs: np.ndarray) -> np.ndarray:
        """Patchify and project to the model width."""
        return self.proj(patchify(imgs, self.patch))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Backward to image space via unpatchify."""
        dpatches = self.proj.backward(dout)
        return unpatchify(dpatches, self.patch, self.in_chans)
