"""Scratch-buffer pool for the steady-state training hot path.

A :class:`Workspace` hands out reusable ndarray buffers keyed by
``(owner, tag)``. The first request for a key allocates; subsequent
requests with the same shape/dtype return the *same* array, so after
its first step a training loop misses no buffer and allocates nothing
activation-sized — no layer output, gather or residual sum
(``tests/test_models/test_steady_state.py``): the CPU-substrate analogue
of the memory discipline the paper applies on Frontier.

Safety contract (why reuse is sound here):

- every layer instance appears at most once per forward/backward chain
  *of one lane*, so a buffer written in step *t* is only rewritten in
  step *t + 1*, after the backward pass that consumed it has finished;
- activation caches may hold workspace buffers across forward→backward
  because the owning module is the only writer of its buffers;
- a checkpointed block's recompute refills the same buffers with the
  same values before its backward reads them.

**Lanes.** A pipeline stage runs several microbatches' forwards before
the first one's backward, so one buffer per ``(owner, tag)`` is not
enough: the second forward would overwrite what the first backward
still has to read. The pool therefore holds one buffer dict per *lane*
and :meth:`Workspace.use_lane` selects which dict :meth:`request`
serves from. The pipeline engine gives every in-flight (stage, micro)
its own lane for that micro's forward *and* backward and reuses the
lane once the backward has drained, so the contract above holds per
lane and the pool grows to the schedule's in-flight peak. Code that
never calls ``use_lane`` stays on lane 0 and runs exactly the
single-dict pool.

Buffers are returned **uninitialized** (``np.empty`` semantics): callers
must fully overwrite them (``out=`` kernels) before reading.

Attach a pool with :meth:`repro.models.module.Module.use_workspace`;
detach by passing ``None``. With no pool attached every request falls
back to a fresh ``np.empty``, i.e. allocation behavior — and numerics —
are unchanged.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Keyed pool of reusable scratch buffers."""

    __slots__ = ("_bufs", "_lanes", "hits", "misses")

    def __init__(self):
        #: The selected lane's buffers (the only dict ``request`` sees).
        self._bufs: dict[Hashable, np.ndarray] = {}
        self._lanes: list[dict[Hashable, np.ndarray]] = [self._bufs]
        #: Requests served by an existing buffer (steady state: all).
        self.hits = 0
        #: Requests that had to (re)allocate (first step / shape change).
        self.misses = 0

    def request(
        self, key: Hashable, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """Return an uninitialized buffer for ``key``, reusing when possible.

        A shape or dtype change (e.g. the trailing short batch of an
        epoch) transparently reallocates that one buffer.
        """
        buf = self._bufs.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf

    def use_lane(self, lane: int) -> None:
        """Serve subsequent requests from lane ``lane`` (created empty
        on first use). Lane 0 is the default."""
        while len(self._lanes) <= lane:
            self._lanes.append({})
        self._bufs = self._lanes[lane]

    def n_lanes(self) -> int:
        """Number of lanes ever selected (1 without a pipeline)."""
        return len(self._lanes)

    def n_buffers(self) -> int:
        """Number of live buffers in the pool, all lanes."""
        return sum(len(lane) for lane in self._lanes)

    def nbytes(self) -> int:
        """Total bytes held by the pool, all lanes."""
        return sum(b.nbytes for lane in self._lanes for b in lane.values())

    def clear(self) -> None:
        """Drop every buffer of every lane, back to lane 0 (and reset
        the hit/miss counters)."""
        self._bufs = {}
        self._lanes = [self._bufs]
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"Workspace({self.n_buffers()} buffers, "
            f"{self.nbytes() / 1e6:.2f} MB, "
            f"hits={self.hits}, misses={self.misses})"
        )
