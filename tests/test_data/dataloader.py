"""Deterministic batching over in-memory datasets.

A minimal analogue of ``torch.utils.data.DataLoader`` for NumPy arrays:
per-epoch shuffling from an explicit seed, optional last-batch dropping,
and fancy-indexed (vectorized) batch assembly.

No program loads through it (the trainers gather their own batches);
it lives here with its tests.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.datasets import ArrayDataset
from repro.telemetry import NULL_BUS, TelemetryBus

__all__ = ["DataLoader"]


class DataLoader:
    """Deterministic mini-batch iterator over an :class:`ArrayDataset`.

    When a ``telemetry`` bus is attached, every batch assembly is timed
    as a ``data.fetch`` span (batch size attached), so input latency
    shows up alongside compute/comm in the same trace.
    """
    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int,
        shuffle: bool = True,
        seed: int = 0,
        drop_last: bool = False,
        telemetry: TelemetryBus | None = None,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if drop_last and batch_size > len(dataset):
            # With drop_last the loader would yield nothing at all. Without
            # it, torch semantics apply: one short batch of the whole set.
            raise ValueError(
                f"batch_size {batch_size} exceeds dataset size {len(dataset)} "
                "and drop_last=True would yield no batches"
            )
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.seed = seed
        self.drop_last = drop_last
        self.telemetry = telemetry if telemetry is not None else NULL_BUS
        self._epoch = 0
        self._batch = 0

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return -(-n // self.batch_size)

    def set_epoch(self, epoch: int) -> None:
        """Select which epoch's permutation the next iteration uses.

        Also rewinds the batch cursor to the start of that epoch.
        """
        self._epoch = epoch
        self._batch = 0

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """The loader's resume cursor: ``(epoch, batch)`` plus the seed.

        Permutations are a pure function of (seed, epoch), so the cursor
        is the loader's entire persistent state: restoring it makes
        iteration resume at exactly the next batch an uninterrupted run
        would have delivered — *including mid-epoch*. Resolution is one
        batch: the cursor advances when a batch is handed to the
        consumer, so a snapshot taken while a batch is being processed
        counts that batch as consumed and resume starts at the one
        after it (batches are never replayed and never skipped, but
        there is no intra-batch resume point).
        """
        return {"epoch": self._epoch, "batch": self._batch, "seed": self.seed}

    def load_state_dict(self, sd: dict) -> None:
        """Restore a cursor taken from a loader with the same seed.

        Cursors from before batch-granularity resume (no ``"batch"``
        key) restore at the epoch boundary, as they always did.
        """
        if int(sd["seed"]) != self.seed:
            raise ValueError(
                f"cursor was saved with seed {sd['seed']}, loader has {self.seed}"
            )
        self._epoch = int(sd["epoch"])
        self._batch = int(sd.get("batch", 0))

    def _order(self) -> np.ndarray:
        if not self.shuffle:
            return np.arange(len(self.dataset))
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, 517, self._epoch]))
        )
        return rng.permutation(len(self.dataset))

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield the remainder of the current epoch (all of it when the
        batch cursor sits at an epoch boundary, which is the usual case).

        The cursor advances *before* each batch is yielded, so a
        ``state_dict()`` taken after receiving batch ``k`` resumes at
        batch ``k + 1`` — a partially-consumed iterator never causes a
        batch to be replayed or skipped.
        """
        order = self._order()
        epoch = self._epoch
        n = len(order)
        stop = (n // self.batch_size) * self.batch_size if self.drop_last else n
        n_batches = -(-stop // self.batch_size)
        bus = self.telemetry
        for b in range(self._batch, n_batches):
            idx = order[b * self.batch_size : min((b + 1) * self.batch_size, stop)]
            if b + 1 >= n_batches:
                self._epoch = epoch + 1
                self._batch = 0
            else:
                self._batch = b + 1
            if not bus.enabled:
                yield self.dataset.images[idx], self.dataset.labels[idx]
                continue
            with bus.span("data.fetch", batch=len(idx)):
                batch = (self.dataset.images[idx], self.dataset.labels[idx])
            yield batch
