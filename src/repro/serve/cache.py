"""Content-addressed LRU cache of encoder features.

The frozen encoder is a pure function of its input image, so its output
is perfectly cacheable: two requests carrying byte-identical images are
guaranteed byte-identical features. Geospatial serving traffic makes
this pay off — popular tiles (cities, coastlines, basemap zoom levels)
are requested over and over, and a hit skips the entire ViT forward.

Keys are content digests (SHA-256 over dtype, shape, and raw bytes), so
caching is invisible to numerics by construction: a hit returns a copy
of exactly the array a miss would have computed. Eviction is
least-recently-*used* (hits refresh recency), capacity is counted in
entries, and hit/miss counts are kept on the cache itself so the server
can export a hit-rate without reaching into telemetry.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from functools import cache

import numpy as np

__all__ = ["image_digest", "LRUFeatureCache"]


@cache
def _header(dtype: np.dtype, shape: tuple) -> bytes:
    """``str(dtype) + str(shape)`` encoded; NumPy formats a dtype's name
    in Python on every call, as costly per request as hashing an image."""
    return str(dtype).encode() + str(shape).encode()


def image_digest(image: np.ndarray) -> str:
    """SHA-256 content digest of an array (dtype + shape + raw bytes).

    Dtype and shape are folded in so e.g. a float32 and float64 encoding
    of the same pixels — which produce different features — never
    collide on one key. The pixels are hashed from the array's own
    buffer (copied first only when it is not C-contiguous).
    """
    h = hashlib.sha256(_header(image.dtype, image.shape))
    # Through a throwaway view: NumPy keeps ~100 B of buffer-export info
    # on the exporting array object until that object dies.
    h.update(np.ascontiguousarray(image).view())
    return h.hexdigest()


class LRUFeatureCache:
    """Bounded mapping ``digest -> feature row`` with LRU eviction."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: OrderedDict[str, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, digest: str) -> bool:
        return digest in self._items

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, digest: str) -> np.ndarray | None:
        """Cached features for ``digest`` (a defensive copy), else None.

        A hit refreshes the entry's recency; both outcomes are counted.
        """
        row = self._items.get(digest)
        if row is None:
            self.misses += 1
            return None
        self._items.move_to_end(digest)
        self.hits += 1
        return row.copy()

    def put(self, digest: str, features: np.ndarray) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry if full."""
        if digest in self._items:
            self._items.move_to_end(digest)
            return
        if len(self._items) >= self.capacity:
            self._items.popitem(last=False)
        self._items[digest] = features.copy()
