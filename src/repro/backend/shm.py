"""Shared-memory arenas: named segments, aligned views, leak-proof lifecycle.

The process backend keeps *all* cross-process arrays — flat parameters,
the ``(rounds, ranks, grad_numel)`` gradient staging block and the
microbatch data block — in POSIX shared memory
(``multiprocessing.shared_memory``), exposed to both sides as zero-copy
NumPy views; everything else (commands, losses, a round's telemetry
events) rides the per-worker pipe. This module owns the lifecycle
discipline:

- **Creation registers.** Every segment created through
  :meth:`ShmArena.create` lands in a module-level registry
  (``_LIVE_SEGMENTS``, lint-whitelisted) and an ``atexit`` sweep
  unlinks anything still registered at interpreter exit — a crash
  between engine construction and ``engine.close()`` cannot strand
  ``/dev/shm`` entries.
- **Attachment does not register.** Workers attach by name with the
  ``resource_tracker`` registration suppressed: the parent is the sole
  owner, and letting every child register the same name makes the
  tracker unlink (or warn about) segments it never owned. Suppression
  is scoped to the attach call.
- **Destroy is idempotent** and tolerates exported views: buffers are
  released best-effort (a lingering view downgrades ``close`` to a
  no-op; ``unlink`` — the part that frees ``/dev/shm`` — always runs).

``tests/test_backend/test_lifecycle.py`` asserts a clean ``/dev/shm``
and no orphan children after normal shutdown *and* after a
chaos-injected worker crash.
"""

from __future__ import annotations

import atexit
import os
import secrets
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = ["ShmArena", "plan_blocks", "attach_segment", "sweep_segments"]

#: Sub-block alignment (bytes). Cache-line aligned so adjacent blocks
#: written by different processes never share a line.
ALIGN = 64

#: Segments created (and therefore owned) by this process, by name.
#: Mutated at runtime by design — whitelisted in fork_safety_check.
_LIVE_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}


def _align(n: int) -> int:
    return -(-n // ALIGN) * ALIGN


def plan_blocks(sizes: dict[str, int]) -> tuple[dict[str, int], int]:
    """Lay out named blocks in one segment: ``(offsets, total_bytes)``.

    Each block starts on an :data:`ALIGN` boundary, in dict order.
    """
    offsets: dict[str, int] = {}
    cursor = 0
    for name, nbytes in sizes.items():
        if nbytes < 0:
            raise ValueError(f"block {name!r}: negative size {nbytes}")
        offsets[name] = cursor
        cursor += _align(nbytes)
    return offsets, max(cursor, 1)


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment *without* resource-tracker registration.

    The creating process owns cleanup; a child that registered the same
    name would have the tracker second-guess (and on some interpreter
    versions prematurely unlink) the parent's segment at child exit.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def sweep_segments() -> list[str]:
    """Destroy every still-registered segment; returns the swept names.

    Runs at interpreter exit (``atexit``) as the backstop; normal
    shutdown paths call :meth:`ShmArena.destroy` explicitly and leave
    nothing for the sweep.
    """
    swept = []
    for name in list(_LIVE_SEGMENTS):
        seg = _LIVE_SEGMENTS.pop(name)
        try:
            seg.close()
        except BufferError:
            # A NumPy view is still exported somewhere; the mapping dies
            # with the process. unlink below is what frees /dev/shm.
            pass
        try:
            seg.unlink()
        except FileNotFoundError:
            continue
        swept.append(name)
    return swept


atexit.register(sweep_segments)


class ShmArena:
    """One named shared-memory segment with aligned zero-copy views.

    Use :meth:`create` in the owning (parent) process and
    :meth:`attach` in workers. Only the owner may :meth:`destroy`.
    """

    def __init__(self, segment: shared_memory.SharedMemory, owner: bool):
        self._segment = segment
        self.owner = owner
        self.name = segment.name
        self._closed = False

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, nbytes: int, prefix: str = "repro") -> "ShmArena":
        """Allocate a fresh zero-filled segment and register it for sweep."""
        if nbytes < 1:
            raise ValueError(f"nbytes must be >= 1, got {nbytes}")
        name = f"{prefix}-{os.getpid()}-{secrets.token_hex(4)}"
        segment = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        _LIVE_SEGMENTS[segment.name] = segment
        return cls(segment, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmArena":
        """Map an existing segment (worker side; no tracker registration)."""
        return cls(attach_segment(name), owner=False)

    # -- access ------------------------------------------------------------

    @property
    def size(self) -> int:
        """Mapped bytes (the kernel may round the request up)."""
        return self._segment.size

    def view(self, offset: int, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Zero-copy ndarray over ``[offset, offset + prod(shape) * itemsize)``."""
        dt = np.dtype(dtype)
        n = int(np.prod(shape, dtype=np.int64))
        end = offset + n * dt.itemsize
        if offset < 0 or end > self._segment.size:
            raise ValueError(
                f"view [{offset}, {end}) outside segment of {self._segment.size} bytes"
            )
        return np.ndarray(shape, dtype=dt, buffer=self._segment.buf, offset=offset)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view (safe on both sides; idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._segment.close()
        except BufferError:
            # Exported views keep the mapping alive until process exit;
            # the owner's unlink still frees the name.
            pass

    def destroy(self) -> None:
        """Owner-side teardown: unmap, unlink, deregister (idempotent)."""
        if not self.owner:
            raise RuntimeError(f"segment {self.name} is not owned by this arena")
        self.close()
        _LIVE_SEGMENTS.pop(self.name, None)
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass
