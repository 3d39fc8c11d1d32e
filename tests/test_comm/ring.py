"""The chunked ring algorithms, as the tests' oracle.

``SimComm`` executes every collective directly and *prices* it as a
bandwidth-optimal NCCL/RCCL ring would move it. These pure functions are
that ring, run chunk by chunk — ``g - 1`` steps in which every rank
passes one chunk to its right-hand neighbour — so the direct forms can
be checked against an independent implementation that accumulates in a
different order. Nothing in ``src`` calls them.
"""

from __future__ import annotations

import numpy as np


def ring_chunks(n: int, g: int) -> list[slice]:
    """Split ``n`` elements into ``g`` near-equal contiguous chunks."""
    base, extra = divmod(n, g)
    slices, start = [], 0
    for i in range(g):
        size = base + (1 if i < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def ring_reduce_scatter(buffers: list[np.ndarray], op: str) -> list[np.ndarray]:
    """Ring reduce-scatter of ``g`` 1-D buffers: rank ``i`` ends up with
    reduced chunk ``i`` (chunks need not be equal)."""
    g = len(buffers)
    chunks = ring_chunks(buffers[0].size, g)
    # acc[r][c] is rank r's current partial for chunk c.
    acc = [[b[c].astype(np.float64, copy=True) for c in chunks] for b in buffers]
    counts = [[1] * g for _ in range(g)]
    for step in range(g - 1):
        # Every rank sends at once: read all partials before any lands.
        moving = []
        for r in range(g):
            c = (r - step) % g
            moving.append(((r + 1) % g, c, acc[r][c], counts[r][c]))
        for dst, c, data, cnt in moving:
            if op == "max":
                np.maximum(acc[dst][c], data, out=acc[dst][c])
            else:
                acc[dst][c] += data
                counts[dst][c] += cnt
    # After g - 1 steps rank r holds the finished chunk (r + 1) % g.
    out = [None] * g
    for r in range(g):
        c = (r + 1) % g
        val = acc[r][c] / counts[r][c] if op == "mean" else acc[r][c]
        out[c] = val.astype(buffers[0].dtype)
    return out


def ring_all_gather(shards: list[np.ndarray]) -> list[np.ndarray]:
    """Ring all-gather of ``g`` 1-D shards: every rank ends up with the
    concatenation in group order."""
    g = len(shards)
    offsets = np.cumsum([0] + [s.size for s in shards])
    have = [{r: shards[r].copy()} for r in range(g)]
    for step in range(g - 1):
        moving = []
        for r in range(g):
            c = (r - step) % g
            moving.append(((r + 1) % g, c, have[r][c]))
        for dst, c, data in moving:
            have[dst][c] = data.copy()
    out = []
    for r in range(g):
        full = np.empty(offsets[-1], dtype=shards[0].dtype)
        for c in range(g):
            full[offsets[c] : offsets[c + 1]] = have[r][c]
        out.append(full)
    return out


def ring_all_reduce(buffers: list[np.ndarray], op: str) -> list[np.ndarray]:
    """Ring all-reduce of ``g`` 1-D buffers: reduce-scatter, then
    all-gather the reduced chunks."""
    return ring_all_gather(ring_reduce_scatter(buffers, op))
