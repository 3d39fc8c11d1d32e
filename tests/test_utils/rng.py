"""Deterministic random-number management.

Every stochastic component in the library (data generation, weight init,
MAE masking, dataloader shuffling) draws from an explicitly seeded
``numpy.random.Generator``. Components never touch global NumPy state, so
any experiment is exactly reproducible from its seed and two experiments
never interact through hidden RNG state.

``spawn_rng`` derives independent child generators from a parent seed via
``numpy.random.SeedSequence`` spawning, which guarantees statistical
independence between streams (e.g. one stream per dataloader worker, or
per data-parallel rank).

No program draws from these helpers (components take an explicit
``Generator``); they live here with their tests.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_rng", "RngPool"]


def spawn_rng(seed: int | np.random.SeedSequence, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent generators from one seed.

    Parameters
    ----------
    seed:
        Parent seed (int) or an existing ``SeedSequence``.
    n:
        Number of independent child streams to create.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in ss.spawn(n)]


class RngPool:
    """Named, lazily created independent RNG streams under one root seed.

    Examples
    --------
    >>> pool = RngPool(1234)
    >>> a = pool.get("weights")
    >>> b = pool.get("masking")
    >>> a is pool.get("weights")
    True
    """

    def __init__(self, seed: int):
        self._root = np.random.SeedSequence(seed)
        self._streams: dict[str, np.random.Generator] = {}
        self.seed = seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically."""
        if name not in self._streams:
            # Derive a child seed from the root entropy plus a stable hash of
            # the name so stream identity does not depend on creation order.
            digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
            key = int(digest.astype(np.uint64).sum() * 1000003 + len(name))
            child = np.random.SeedSequence(
                entropy=self._root.entropy, spawn_key=(key,)
            )
            self._streams[name] = np.random.Generator(np.random.PCG64(child))
        return self._streams[name]

    def fork(self, name: str, n: int) -> list[np.random.Generator]:
        """Create ``n`` independent streams namespaced under ``name``."""
        return [self.get(f"{name}/{i}") for i in range(n)]

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every materialized stream.

        Captures each generator's bit-generator state (PCG64 position),
        so restoring mid-sequence continues the exact draw sequence an
        uninterrupted run would have produced.
        """
        return {
            "seed": self.seed,
            "streams": {
                name: dict(g.bit_generator.state)
                for name, g in self._streams.items()
            },
        }

    def load_state_dict(self, sd: dict) -> None:
        """Restore stream cursors saved from a pool with the same seed.

        Streams absent from the snapshot are left untouched; streams in
        the snapshot are created on demand (so a fresh pool restores
        completely).
        """
        if int(sd["seed"]) != self.seed:
            raise ValueError(
                f"state was saved from a pool seeded {sd['seed']}, "
                f"this pool is seeded {self.seed}"
            )
        for name, state in sd["streams"].items():
            self.get(name).bit_generator.state = state
