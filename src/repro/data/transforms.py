"""Image transforms: normalization and light augmentation.

Operates on ``(B, C, H, W)`` or ``(C, H, W)`` arrays; all vectorized, all
pure functions of their RNG argument.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize_images",
    "random_flip",
    "augment_view",
    "IMAGENET_MEAN",
    "IMAGENET_STD",
]

#: Channel statistics used throughout (ImageNet convention, as the MAE
#: reference code applies to RS imagery too).
IMAGENET_MEAN = np.array([0.485, 0.456, 0.406])
IMAGENET_STD = np.array([0.229, 0.224, 0.225])


def _bcast(v: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a per-channel vector for broadcasting over (..., C, H, W)."""
    return v.reshape((1,) * (ndim - 3) + (-1, 1, 1))


def normalize_images(
    images: np.ndarray,
    mean: np.ndarray = IMAGENET_MEAN,
    std: np.ndarray = IMAGENET_STD,
) -> np.ndarray:
    """Standardize channels: ``(x - mean) / std``."""
    if images.ndim not in (3, 4):
        raise ValueError(f"expected (B, C, H, W) or (C, H, W), got {images.shape}")
    if images.shape[-3] != len(mean):
        raise ValueError(
            f"channel count {images.shape[-3]} does not match stats ({len(mean)})"
        )
    return (images - _bcast(mean, images.ndim)) / _bcast(std, images.ndim)


def random_flip(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Horizontal flip with probability 0.5 per image (returns a copy)."""
    if images.ndim != 4:
        raise ValueError(f"expected (B, C, H, W), got {images.shape}")
    out = images.copy()
    flips = rng.random(len(images)) < 0.5
    out[flips] = out[flips, :, :, ::-1]
    return out


def augment_view(
    images: np.ndarray,
    rng: np.random.Generator,
    max_shift: int = 4,
    brightness: float = 0.2,
    noise_std: float = 0.05,
) -> np.ndarray:
    """One stochastic view for contrastive pretraining.

    Composition (all per image): horizontal flip, circular translation
    of up to ``max_shift`` pixels (the periodic stand-in for random
    cropping), multiplicative brightness jitter, and additive Gaussian
    noise. Returns a new array.
    """
    if images.ndim != 4:
        raise ValueError(f"expected (B, C, H, W), got {images.shape}")
    out = random_flip(images, rng)
    b = len(out)
    if max_shift > 0:
        shifts = rng.integers(-max_shift, max_shift + 1, size=(b, 2))
        for i, (dy, dx) in enumerate(shifts):  # per-image roll amounts
            out[i] = np.roll(out[i], (int(dy), int(dx)), axis=(1, 2))
    if brightness > 0:
        out *= rng.uniform(1 - brightness, 1 + brightness, size=(b, 1, 1, 1))
    if noise_std > 0:
        out += noise_std * rng.standard_normal(out.shape)
    return out
