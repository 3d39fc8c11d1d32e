"""Frozen-encoder feature extraction for linear probing.

Because the backbone is frozen during probing, features are extracted
once and the probe trains on the cached matrix — mathematically identical
to running the frozen encoder every step, and orders of magnitude
cheaper. The feature standardization mirrors the parameter-free
BatchNorm the MAE reference inserts before its probe head.
"""

from __future__ import annotations

import numpy as np

from repro.models.mae import MaskedAutoencoder

__all__ = ["extract_features", "standardize_features"]


def extract_features(
    model: MaskedAutoencoder, images: np.ndarray, batch_size: int = 64
) -> np.ndarray:
    """Class-token features for ``images``: ``(N, width)``.

    ``N == 0`` is a valid input (an empty shard, a fully-filtered split)
    and returns an empty ``(0, width)`` matrix that concatenates and
    standardizes like any other — not the bare ``np.concatenate`` error
    an empty chunk list used to surface.
    """
    if images.ndim != 4:
        raise ValueError(f"images must be (N, C, H, W), got {images.shape}")
    if len(images) == 0:
        # Match the dtype a real forward would produce (float64 params
        # promote any float input).
        dtype = np.result_type(images.dtype, np.float64)
        return np.zeros((0, model.cfg.encoder.width), dtype=dtype)
    return _encode_batched(model.encode_features, images, batch_size)


def _encode_batched(encode, images: np.ndarray, batch_size: int) -> np.ndarray:
    """``encode`` over non-empty ``images`` in chunks, concatenated: the one
    extraction loop (class tokens here, patch tokens for segmentation)."""
    chunks = [encode(images[i : i + batch_size]) for i in range(0, len(images), batch_size)]
    return np.concatenate(chunks, axis=0)


def standardize_features(
    train: np.ndarray, *others: np.ndarray, eps: float = 1e-6
) -> tuple[np.ndarray, ...]:
    """Standardize feature matrices with *train-set* statistics."""
    if train.ndim != 2:
        raise ValueError(f"features must be (N, D), got {train.shape}")
    mu = train.mean(axis=0, keepdims=True)
    sd = train.std(axis=0, keepdims=True) + eps
    return tuple((m - mu) / sd for m in (train, *others))
