"""Logical reduction layouts: what a resize must preserve to stay bit-exact.

Every optimizer step reduces ``total = grad_accum_steps * world_size``
microbatch gradients. In fp32 the *value* of that reduction depends only
on how NumPy's stacked mean groups the contributions, not on which rank
computed which microbatch — the engines consume microbatches round-major
precisely so that the grouping is a pure function of two integers:

``total``
    Microbatch gradients entering one optimizer step (``k * W``).
``chunk``
    The stage-1 reduction group size. The round-major microbatch
    sequence is cut into ``total / chunk`` consecutive chunks; stage 1
    means each chunk in one stacked reduction, and (when there is more
    than one chunk) stage 2 means the chunk-means. ``chunk == total``
    is the single-stage layout used by DDP / NO_SHARD / FULL_SHARD /
    SHARD_GRAD_OP; HYBRID_SHARD's shard-group reduce-scatter followed by
    the cross-replica all-reduce realizes ``chunk == shard_size``.

Two configurations train **bit-identically** iff they share the same
``(total, chunk)`` (verified per strategy in ``tests/test_elastic``).
That makes :class:`ReductionLayout` the invariant a world resize must
carry: FULL_SHARD on 16 ranks is ``(16, 16)``, and resuming it on a
HYBRID world of 8 requires the engine to *fold* its two reduction stages
into one (``chunk == total``), which is only possible when the hybrid
mesh has a single replica group (``shard_size == world_size``).

This module is a dependency-free leaf (stdlib only): the engines import
it, not the other way around. Strategy names are passed as strings to
keep it that way.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ReductionLayout",
    "natural_layout",
    "validate_layout",
    "SINGLE_STAGE_STRATEGIES",
]

#: Strategies whose gradient reduction is a single stacked mean over all
#: ``total`` contributions (deferred across accumulation rounds).
SINGLE_STAGE_STRATEGIES = frozenset(
    {"DDP", "NO_SHARD", "FULL_SHARD", "SHARD_GRAD_OP"}
)


@dataclass(frozen=True)
class ReductionLayout:
    """The fp32-trajectory invariant of a training configuration."""

    total: int
    chunk: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ValueError(f"total must be >= 1, got {self.total}")
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")
        if self.total % self.chunk != 0:
            raise ValueError(
                f"chunk {self.chunk} must divide total {self.total}"
            )

    @property
    def single_stage(self) -> bool:
        """True when the reduction is one stacked mean (no stage 2)."""
        return self.chunk == self.total

    @property
    def n_chunks(self) -> int:
        """Stage-2 contributions (1 for single-stage layouts)."""
        return self.total // self.chunk

    def describe(self) -> str:
        """Human-readable form used in error messages."""
        return f"(total={self.total}, chunk={self.chunk})"


def _norm_strategy(strategy: str) -> str:
    name = str(strategy).strip().upper()
    if name not in SINGLE_STAGE_STRATEGIES and name != "HYBRID_SHARD":
        raise ValueError(f"unknown strategy name {strategy!r}")
    return name


def natural_layout(
    strategy: str,
    world_size: int,
    shard_size: int | None = None,
    grad_accum_steps: int = 1,
) -> ReductionLayout:
    """The layout a configuration realizes with no override.

    Single-stage strategies reduce all ``k * W`` contributions in one
    stacked mean; HYBRID_SHARD chunks by its shard group.
    """
    name = _norm_strategy(strategy)
    total = world_size * grad_accum_steps
    if name in SINGLE_STAGE_STRATEGIES:
        return ReductionLayout(total=total, chunk=total)
    if shard_size is None:
        raise ValueError("HYBRID_SHARD layout requires shard_size")
    return ReductionLayout(total=total, chunk=shard_size)


def validate_layout(
    strategy: str,
    world_size: int,
    shard_size: int | None,
    grad_accum_steps: int,
    layout: ReductionLayout | None,
) -> ReductionLayout:
    """Resolve the layout an engine will run (natural or explicit).

    ``layout=None`` returns :func:`natural_layout` — the status-quo
    behavior of every strategy. An explicit layout is checked against
    what the engine can actually realize:

    - ``total`` must equal ``grad_accum_steps * world_size`` (the step
      consumes exactly that many microbatches);
    - single-stage strategies can only realize ``chunk == total``;
    - HYBRID_SHARD realizes ``chunk == shard_size`` naturally, or
      ``chunk == total`` by *folding* both stages into one deferred
      reduce-scatter — which requires a single replica group
      (``shard_size == world_size``).

    ``world_size`` is the size of the data-parallel group: on a
    ``(pp, dp, tp)`` mesh that is ``dp`` — gradients reduce only along
    the dp axis (tp weight gradients are sharded by construction, pp
    partitions the parameters across stages), so a mesh with ``dp=4,
    k=1`` shares a trajectory with plain DDP on a world of 4.

    Raises ``ValueError`` with the allocation fix spelled out.
    """
    name = _norm_strategy(strategy)
    natural = natural_layout(name, world_size, shard_size, grad_accum_steps)
    if layout is None:
        return natural
    total = world_size * grad_accum_steps
    if layout.total != total:
        raise ValueError(
            f"reduction layout {layout.describe()} needs {layout.total} "
            f"microbatches per step, but world_size={world_size} x "
            f"grad_accum_steps={grad_accum_steps} supplies {total}; adjust "
            "grad_accum_steps so their product matches the layout total"
        )
    if name in SINGLE_STAGE_STRATEGIES:
        if not layout.single_stage:
            raise ValueError(
                f"{name} reduces in a single stage and cannot realize the "
                f"chunked layout {layout.describe()}; use HYBRID_SHARD with "
                f"shard_size={layout.chunk} instead"
            )
        return layout
    # HYBRID_SHARD
    if layout.chunk == shard_size:
        return layout
    if layout.single_stage:
        if world_size != shard_size:
            raise ValueError(
                f"HYBRID_SHARD can fold to the single-stage layout "
                f"{layout.describe()} only with one replica group "
                f"(shard_size == world_size); got shard_size={shard_size}, "
                f"world_size={world_size}"
            )
        return layout
    raise ValueError(
        f"HYBRID_SHARD with shard_size={shard_size} realizes chunk="
        f"{shard_size} (natural {natural.describe()}) or the folded "
        f"single-stage chunk={total}; cannot realize {layout.describe()}"
    )
