"""Rank-sharded sampling (the analogue of ``DistributedSampler``).

Every rank sees a disjoint, equally-sized *strided* slice of each epoch's
permutation (rank r takes positions ``r, r + W, r + 2W, ...`` — the same
convention as PyTorch's ``DistributedSampler``); the permutation depends
only on (seed, epoch), so the union over ranks is exactly the
single-process epoch — which keeps distributed training equivalent to the
single-process reference.

When ``n_items`` does not divide by the world size, ``drop_last=True``
truncates the permutation to the largest multiple (some samples are
skipped that epoch) while ``drop_last=False`` pads it by wrapping around
to the front of the permutation (some samples repeat), again matching
``DistributedSampler``. Either way every rank draws the same per-epoch
count, so lockstep collectives never see ragged batches.

No program samples through it; it lives here with its tests, which
also pin the elastic cursor rule below.
"""

from __future__ import annotations

import numpy as np

from repro.elastic.errors import ElasticCompatibilityError

__all__ = ["DistributedSampler"]


class DistributedSampler:
    """Deterministic rank-sharded epoch sampler (see module docstring).

    The sampler also carries an elastic *cursor* — ``(epoch, consumed)``
    where ``consumed`` counts the items this rank has drawn from the
    current epoch — checkpointable via :meth:`state_dict` and restorable
    into a **different** world size: because ranks stride the shared
    permutation, "rank ``r`` consumed ``c`` items" is equivalent to "the
    world consumed the first ``c * W`` positions", which re-strides
    exactly onto any world ``W'`` dividing that global position. Legacy
    cursors that predate the world-size record are refused with a typed
    error instead of silently mis-striding.
    """

    def __init__(
        self,
        n_items: int,
        world_size: int,
        rank: int,
        seed: int = 0,
        drop_last: bool = True,
    ):
        if n_items <= 0:
            raise ValueError(f"n_items must be positive, got {n_items}")
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world {world_size}")
        self.n_items = n_items
        self.world_size = world_size
        self.rank = rank
        self.seed = seed
        self.drop_last = drop_last
        if drop_last:
            self.per_rank = n_items // world_size
        else:
            self.per_rank = -(-n_items // world_size)
        self.epoch = 0
        self.consumed = 0

    def epoch_indices(self, epoch: int) -> np.ndarray:
        """This rank's indices for ``epoch`` (strided slice of the perm).

        ``drop_last=True`` truncates the permutation to ``per_rank * W``
        entries; ``drop_last=False`` wraps it around to that length
        instead, so the union over ranks covers every item at least once
        and all ranks stay the same size.
        """
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, 31337, epoch]))
        )
        perm = rng.permutation(self.n_items)
        total = self.per_rank * self.world_size
        if self.drop_last:
            perm = perm[:total]
        elif total > self.n_items:
            perm = np.concatenate([perm, perm[: total - self.n_items]])
        return perm[self.rank :: self.world_size]

    # -- elastic cursor ----------------------------------------------------

    def advance(self, n: int) -> None:
        """Record that this rank consumed ``n`` more items; epochs roll
        over automatically when the rank's slice is exhausted."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self.consumed += n
        while self.consumed >= self.per_rank:
            self.consumed -= self.per_rank
            self.epoch += 1

    def remaining_indices(self) -> np.ndarray:
        """This rank's not-yet-consumed indices of the current epoch."""
        return self.epoch_indices(self.epoch)[self.consumed :]

    def state_dict(self) -> dict:
        """Elastic cursor: position plus the world shape it strides."""
        return {
            "epoch": self.epoch,
            "consumed": self.consumed,
            "world_size": self.world_size,
            "n_items": self.n_items,
            "seed": self.seed,
            "drop_last": self.drop_last,
        }

    def load_state_dict(self, sd: dict) -> None:
        """Restore a cursor, re-striding across world sizes.

        A cursor saved at world size ``W`` with ``consumed = c`` means
        the permutation's first ``c * W`` positions are done globally;
        restoring into world size ``W'`` requires ``c * W`` to divide by
        ``W'`` (i.e. the save happened on a global batch boundary shared
        by both worlds — always true when the global batch size is
        preserved, as the elastic requeue driver does).

        Raises :class:`~repro.elastic.errors.ElasticCompatibilityError`
        for legacy cursors that never recorded their world size: the
        old format striding silently into a resized world is exactly the
        divergence this method exists to prevent.
        """
        if "world_size" not in sd:
            raise ElasticCompatibilityError(
                "legacy DistributedSampler cursor: it records no world_size, "
                f"so restoring it into a world of {self.world_size} rank(s) "
                "would silently mis-stride the epoch permutation (rank r "
                "reads positions r, r+W, ... — a different W reassigns every "
                "sample). Re-save the cursor with this version, or restart "
                "from an epoch boundary via epoch_indices(epoch)."
            )
        for field in ("n_items", "seed", "drop_last"):
            if field in sd and sd[field] != getattr(self, field):
                raise ElasticCompatibilityError(
                    f"sampler cursor {field}={sd[field]!r} does not match "
                    f"this sampler's {field}={getattr(self, field)!r}; the "
                    "permutation stream would differ"
                )
        old_world = int(sd["world_size"])
        global_consumed = int(sd["consumed"]) * old_world
        if global_consumed % self.world_size != 0:
            raise ElasticCompatibilityError(
                f"cursor at global position {global_consumed} (consumed "
                f"{sd['consumed']} x world {old_world}) does not fall on a "
                f"boundary of the new world size {self.world_size}; resume "
                "at a step whose global sample count divides by both world "
                "sizes, or restart the epoch"
            )
        consumed = global_consumed // self.world_size
        if consumed > self.per_rank:
            raise ElasticCompatibilityError(
                f"cursor global position {global_consumed} exceeds this "
                f"world's epoch capacity ({self.per_rank} items/rank x "
                f"{self.world_size} ranks); drop_last truncation differs "
                "between the two worlds — restart from an epoch boundary"
            )
        self.epoch = int(sd["epoch"])
        self.consumed = consumed
