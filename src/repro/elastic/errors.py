"""Typed errors for the elastic (preempt / requeue / reshard) lifecycle.

This module is a dependency-free leaf: it may be imported from anywhere
in the package (including :mod:`repro.core` and :mod:`repro.data`)
without creating an import cycle.
"""

from __future__ import annotations

__all__ = ["ElasticCompatibilityError", "PreemptedError"]


class ElasticCompatibilityError(ValueError):
    """A checkpoint cannot be restored into this world as-is.

    Raised instead of letting a structurally-plausible load proceed and
    silently diverge (e.g. a sampler cursor striding over a different
    world size, or an optimizer slot count from a different shard
    layout). The message always says what mismatched and, where there
    is one, the way out — "pick a target from
    ``repro.elastic.compatible_allocations``" or "restart from an epoch
    boundary". :meth:`~repro.core.trainer.Pretrainer.resume` raises it
    for every snapshot it will not restore.
    """


class PreemptedError(RuntimeError):
    """Training was drained and checkpointed in response to a preemption.

    The in-flight optimizer step ran to completion, the final snapshot
    (when a checkpoint directory is configured) was written, and the
    trainer unwound. A requeue driver catches this, builds the next
    (possibly resized) allocation, and resumes from ``checkpoint``.
    """

    def __init__(self, step: int, checkpoint: str | None = None):
        self.step = step
        self.checkpoint = checkpoint
        where = f" (final snapshot: {checkpoint})" if checkpoint else ""
        super().__init__(f"preempted after draining step {step}{where}")
