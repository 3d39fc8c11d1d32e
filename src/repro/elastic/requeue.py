"""Preemption/requeue lifecycle: train through a sequence of worlds.

On Frontier-class machines a pretraining job does not own its nodes for
the whole run — the scheduler preempts it (SIGTERM after a grace
warning), requeues it, and may hand the next incarnation a *different*
allocation. This module simulates that lifecycle end to end:

- :class:`Allocation` — one scheduler grant (strategy, world size,
  accumulation depth, backend) that can build its engine.
- :func:`compatible_allocations` — every allocation that continues a
  given :class:`~repro.elastic.layout.ReductionLayout` bit-exactly.
- :class:`ResizeScheduler` — a seeded scheduler that picks preemption
  steps and the next allocation for each requeue.
- :class:`RequeueDriver` — the sbatch-requeue loop: build the trainer
  for the current allocation, train until
  :class:`~repro.elastic.errors.PreemptedError` unwinds it (the drained
  step's snapshot is already on disk), then rebuild under the next
  allocation and :meth:`~repro.core.trainer.Pretrainer.resume`, which
  reshards the checkpoint on the way in.

The invariant all of this preserves: the concatenated loss history and
final parameters of a preempted/resized run are **bit-identical** to the
uninterrupted run (the resize chaos campaign asserts exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.elastic.errors import ElasticCompatibilityError, PreemptedError
from repro.elastic.layout import (
    SINGLE_STAGE_STRATEGIES,
    ReductionLayout,
)
from repro.elastic.preemption import PreemptionToken

__all__ = [
    "Allocation",
    "compatible_allocations",
    "ResizeScheduler",
    "RequeueDriver",
    "RequeueReport",
]


@dataclass(frozen=True)
class Allocation:
    """One scheduler grant: the world a training incarnation runs in.

    ``shard_size`` is only meaningful for ``HYBRID_SHARD`` (other
    strategies imply it); ``grad_accum_steps`` is the accumulation depth
    that keeps the global batch constant across world sizes.
    """

    strategy: str
    world_size: int
    grad_accum_steps: int = 1
    shard_size: int | None = None
    backend: str = "inline"
    ranks_per_node: int | None = None

    def __post_init__(self) -> None:
        if self.world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {self.world_size}")
        if self.grad_accum_steps < 1:
            raise ValueError(
                f"grad_accum_steps must be >= 1, got {self.grad_accum_steps}"
            )

    def describe(self) -> str:
        """Human-readable one-liner (used in transition logs)."""
        shard = f" shard={self.shard_size}" if self.shard_size else ""
        return (
            f"{self.strategy} W={self.world_size}{shard} "
            f"k={self.grad_accum_steps} [{self.backend}]"
        )

    def build(self, model, layout: ReductionLayout, *, telemetry=None):
        """Build this allocation's engine, pinned to ``layout``.

        The engine validates that it can realize the layout (see
        :func:`repro.elastic.layout.validate_layout`), so an allocation
        that would silently change the trajectory fails to construct.
        """
        from repro.comm.world import World
        from repro.core.engine import EngineConfig, make_engine

        world = World(
            size=self.world_size,
            ranks_per_node=self.ranks_per_node or self.world_size,
        )
        cfg = EngineConfig(
            shard_size=self.shard_size,
            grad_accum_steps=self.grad_accum_steps,
            backend=self.backend,
            reduction_layout=layout,
            telemetry=telemetry,
        )
        return make_engine(model, self.strategy, world=world, config=cfg)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def compatible_allocations(
    layout: ReductionLayout,
    *,
    backends: Sequence[str] = ("inline",),
    max_process_world: int = 4,
) -> list[Allocation]:
    """Every allocation that continues ``layout``'s trajectory bit-exact.

    A single-stage layout (``chunk == total``) is realized by any
    single-stage strategy at any world size ``W`` dividing ``total``
    (with ``grad_accum_steps = total // W``), plus HYBRID_SHARD *folded*
    to one reduction stage (single replica group:
    ``shard_size == W``). A chunked layout (``chunk < total``) is
    HYBRID_SHARD-only: ``shard_size == chunk`` and ``W`` any multiple of
    ``chunk`` dividing ``total``.

    Process-backend allocations are capped at ``max_process_world``
    ranks (each rank is an OS process; the simulation's numerics are
    backend-identical, so small worlds lose no coverage).
    """
    total, chunk = layout.total, layout.chunk
    out: list[Allocation] = []
    for backend in backends:
        worlds = [
            w
            for w in _divisors(total)
            if backend != "process" or w <= max_process_world
        ]
        if layout.single_stage:
            for w in worlds:
                k = total // w
                for strat in sorted(SINGLE_STAGE_STRATEGIES):
                    out.append(
                        Allocation(
                            strategy=strat,
                            world_size=w,
                            grad_accum_steps=k,
                            backend=backend,
                        )
                    )
                if w > 1:
                    out.append(
                        Allocation(
                            strategy="HYBRID_SHARD",
                            world_size=w,
                            grad_accum_steps=k,
                            shard_size=w,
                            backend=backend,
                        )
                    )
        else:
            for w in worlds:
                if w % chunk != 0:
                    continue
                out.append(
                    Allocation(
                        strategy="HYBRID_SHARD",
                        world_size=w,
                        grad_accum_steps=total // w,
                        shard_size=chunk,
                        backend=backend,
                    )
                )
    if not out:
        raise ElasticCompatibilityError(
            f"no allocation can realize layout {layout.describe()} with "
            f"backends {tuple(backends)!r}"
        )
    return out


class ResizeScheduler:
    """Seeded scheduler: when to preempt, and what world comes next.

    Draws ``n_resizes`` strictly increasing preemption steps in
    ``[0, total_steps - 1)`` and a next allocation for each requeue from
    :func:`compatible_allocations`. ``forced`` pins the first
    transitions (the campaign uses it for the paper's FULL_SHARD 16 →
    HYBRID 8 move); the rest are drawn uniformly.
    """

    def __init__(
        self,
        layout: ReductionLayout,
        total_steps: int,
        *,
        seed: int = 0,
        n_resizes: int = 4,
        backends: Sequence[str] = ("inline",),
        forced: Sequence[Allocation] = (),
        max_process_world: int = 4,
    ):
        if total_steps < 2:
            raise ValueError(
                f"total_steps must be >= 2 to preempt at all, got {total_steps}"
            )
        if n_resizes < len(forced):
            raise ValueError(
                f"n_resizes={n_resizes} < {len(forced)} forced transitions"
            )
        max_resizes = total_steps - 1
        if n_resizes > max_resizes:
            raise ValueError(
                f"cannot fit {n_resizes} distinct preemption steps into "
                f"{total_steps} steps"
            )
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, 271828]))
        )
        steps = rng.choice(total_steps - 1, size=n_resizes, replace=False)
        self.preempt_steps: list[int] = sorted(int(s) for s in steps)
        pool = compatible_allocations(
            layout, backends=backends, max_process_world=max_process_world
        )
        self.allocations: list[Allocation] = list(forced)
        for _ in range(n_resizes - len(forced)):
            self.allocations.append(pool[int(rng.integers(len(pool)))])
        self.layout = layout

    @property
    def n_resizes(self) -> int:
        """How many preemptions this schedule fires."""
        return len(self.preempt_steps)


@dataclass
class RequeueReport:
    """What one :class:`RequeueDriver.train` lifecycle did."""

    losses: list[float]
    lrs: list[float]
    transitions: list[dict]
    requeues: int

    def summary(self) -> dict:
        """JSON-serializable digest of the lifecycle."""
        return {
            "n_steps": len(self.losses),
            "requeues": self.requeues,
            "transitions": self.transitions,
        }


class RequeueDriver:
    """The sbatch-requeue loop over a sequence of allocations.

    ``make_trainer(allocation, token)`` builds a fresh trainer for one
    incarnation — a new model instance, the allocation's engine (pinned
    to the scheduler's layout via :meth:`Allocation.build`), and a
    checkpoint directory shared across incarnations; the
    :class:`~repro.elastic.preemption.PreemptionToken` must be passed to
    the trainer so the drain point sees it. The driver arms the token at
    the scheduled step, resumes (resharding as needed), and on
    :class:`~repro.elastic.errors.PreemptedError` rotates to the next
    allocation — exactly what a Slurm requeue does to a real job.
    """

    def __init__(
        self,
        make_trainer: Callable[[Allocation, PreemptionToken], object],
        scheduler: ResizeScheduler,
        *,
        telemetry=None,
    ):
        self.make_trainer = make_trainer
        self.scheduler = scheduler
        self.telemetry = telemetry

    def train(self, total_steps: int, initial: Allocation) -> RequeueReport:
        """Run the full lifecycle; returns the stitched history."""
        alloc = initial
        transitions: list[dict] = []
        segment = 0
        while True:
            token = PreemptionToken()
            if segment < self.scheduler.n_resizes:
                token.arm_at_step(self.scheduler.preempt_steps[segment])
            trainer = self.make_trainer(alloc, token)
            span = None
            if self.telemetry is not None and self.telemetry.enabled:
                span = self.telemetry.span(
                    "elastic.segment", index=segment, allocation=alloc.describe()
                )
                span.__enter__()
            try:
                result = trainer.resume(total_steps)
                return RequeueReport(
                    losses=list(result.losses),
                    lrs=list(result.lrs),
                    transitions=transitions,
                    requeues=segment,
                )
            except PreemptedError as e:
                nxt = self.scheduler.allocations[segment]
                transitions.append(
                    {
                        "step": e.step,
                        "from": alloc.describe(),
                        "to": nxt.describe(),
                        "checkpoint": e.checkpoint,
                    }
                )
                if self.telemetry is not None and self.telemetry.enabled:
                    self.telemetry.counter(
                        "elastic.requeues",
                        1,
                        step=e.step,
                        to=nxt.describe(),
                    )
                alloc = nxt
                segment += 1
            finally:
                if span is not None:
                    span.__exit__(None, None, None)
                trainer.engine.close()

