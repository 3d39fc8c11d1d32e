"""Executable mini-FSDP engine: the flat-unit layout over the core.

Runs real training of a NumPy model under the paper's sharding
strategies, with all ranks of the job simulated SPMD-style inside one
process. This module holds only what is FSDP's own — flat units and
their shards, which collectives gather and reduce them per strategy;
lifecycle, retries, telemetry, precision, checkpoint state and the step
skeleton are :class:`~repro.core.engine_core.EngineCore`. The engine is
*numerically faithful*:

- each rank computes gradients on its own microbatch;
- gradients are combined with the exact collective sequence of the
  strategy (all-reduce for ``NO_SHARD``; reduce-scatter within the shard
  group, then all-reduce across replica groups for ``HYBRID_SHARD``;
  reduce-scatter over the world for ``FULL_SHARD``/``SHARD_GRAD_OP``);
- the optimizer steps on *flat parameter shards* whose storage is viewed
  by the model parameters, exactly as FSDP's flat-parameter design works;
- parameter all-gathers are issued through the same collective layer
  (forward-only for ``SHARD_GRAD_OP``, forward + backward for
  ``FULL_SHARD``), so call/byte accounting matches the strategy.

One deliberate economy (documented, not a shortcut in numerics): because
all ranks hold identical parameters after every step, the engine keeps a
single model instance and a single materialized flat buffer per unit, and
deduplicates the optimizer state across replica groups (replica shards
are provably identical after the all-reduce). Per-rank activation and
gradient data are genuinely per-rank.

The tests in ``tests/test_core`` assert bit-level (<=1e-9) equivalence of
parameters after multi-step training across every strategy and against a
single-process large-batch reference.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.comm.collectives import SimComm
from repro.comm.faults import RetryPolicy
from repro.comm.world import World, make_hybrid_mesh
from repro.core.engine import EngineConfig
from repro.core.engine_core import EngineCore
from repro.core.sharding import (
    FlatUnit,
    ShardingStrategy,
    default_wrap_units,
)
from repro.elastic.layout import validate_layout
from repro.models.module import Module
from repro.optim.base import Optimizer

__all__ = ["FSDPEngine"]

OptimizerFactory = Callable[[Sequence], Optimizer]


def _resolve_shard_size(
    strategy: ShardingStrategy, shard_size: int | None, world: World
) -> int:
    if strategy is ShardingStrategy.NO_SHARD:
        if shard_size not in (None, 1):
            raise ValueError("NO_SHARD implies shard_size=1")
        return 1
    if strategy in (ShardingStrategy.FULL_SHARD, ShardingStrategy.SHARD_GRAD_OP):
        if shard_size not in (None, world.size):
            raise ValueError(f"{strategy.value} shards across the whole world")
        return world.size
    if strategy is ShardingStrategy.HYBRID_SHARD:
        if shard_size is None:
            raise ValueError("HYBRID_SHARD requires an explicit shard_size")
        if world.size % shard_size != 0:
            raise ValueError(
                f"world size {world.size} not divisible by shard size {shard_size}"
            )
        return shard_size
    raise ValueError(f"unsupported strategy for FSDPEngine: {strategy}")


class FSDPEngine(EngineCore):
    """Sharded data-parallel training of one model over a simulated world.

    Parameters
    ----------
    model:
        The NumPy model. Its parameters are re-pointed to flat-buffer
        views at construction.
    world:
        Rank layout (size and ranks-per-node).
    strategy:
        One of NO_SHARD / FULL_SHARD / SHARD_GRAD_OP / HYBRID_SHARD.
    shard_size:
        Sharding-group size; required for HYBRID_SHARD (the paper's
        ``HYBRID_<n>GPUs``), implied otherwise.
    optimizer_factory:
        ``params -> Optimizer``; defaults to the paper's AdamW recipe.
    retry_policy:
        Bounded backoff for transient collective failures
        (:class:`~repro.comm.faults.CollectiveError`); ``None`` disables
        retries.
    config:
        Shared :class:`~repro.core.engine.EngineConfig`; when given it
        wins over the individual kwargs (which are kept for
        compatibility — prefer :func:`~repro.core.engine.make_engine`).
    telemetry:
        Instrumentation bus (see :class:`~repro.core.engine.EngineConfig`).
    """

    kind = "fsdp"
    _REMOVED_KWARGS = {"sharding_strategy": "strategy"}

    def __init__(
        self,
        model: Module,
        world: World,
        strategy: ShardingStrategy = ShardingStrategy.FULL_SHARD,
        shard_size: int | None = None,
        optimizer_factory: OptimizerFactory | None = None,
        comm: SimComm | None = None,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        *,
        config: EngineConfig | None = None,
        telemetry=None,
        **legacy,
    ):
        self._reject_kwargs(legacy)
        if config is None:
            config = EngineConfig(
                optimizer_factory=optimizer_factory,
                comm=comm,
                shard_size=shard_size,
                retry_policy=retry_policy,
                telemetry=telemetry,
            )
        super().__init__(model, world, config)
        self.strategy = strategy
        self.shard_size = _resolve_shard_size(strategy, config.shard_size, world)
        self.strategy_name = strategy.value
        self.mesh = make_hybrid_mesh(world, self.shard_size)
        # The logical reduction layout this engine realizes. With the
        # default (None) this is the strategy's natural layout and the
        # reduction code below behaves exactly as before; an explicit
        # layout from the elastic machinery can additionally *fold*
        # HYBRID's two stages into one when there is a single replica
        # group, preserving a larger world's single-stage grouping.
        self.layout = validate_layout(
            strategy.value,
            world.size,
            self.shard_size,
            config.grad_accum_steps,
            config.reduction_layout,
        )
        self._fold_hybrid = (
            strategy is ShardingStrategy.HYBRID_SHARD
            and self.layout.single_stage
            and self.mesh.n_replicas == 1
        )
        self.units: list[FlatUnit] = default_wrap_units(model, self.shard_size)
        self.grad_buffers = [unit.grad_flat for unit in self.units]
        self._launch()

    def n_params(self) -> int:
        """Total (unpadded) parameters across units."""
        return sum(u.plan.numel for u in self.units)

    # -- collective phases ---------------------------------------------------

    def _materialize_params(self, backward: bool = False) -> None:
        """All-gather every unit within each shard group: before every
        round's forward (FSDP re-gathers parameters per microbatch even
        when the gradient sync is deferred) and, under ``FULL_SHARD``,
        again for its backward."""
        if self.shard_size > 1 and (
            not backward or self.strategy is ShardingStrategy.FULL_SHARD
        ):
            self._gather_units(self.mesh.shard_groups)

    def _reduce_gradients(
        self, micro_grads: list[list[list[np.ndarray]]]
    ) -> list[np.ndarray]:
        """Combine per-round per-rank flat gradients into shard gradients.

        ``micro_grads[j][r][u]`` is accumulation round j, rank r's flat
        gradient of unit u (an outbound copy). Every final reduce writes
        into the flat shards' ``grad`` (``out=``) — identical across
        replica groups, and what the optimizer reads; those arrays are
        returned unit-major, the order of the optimizer's flat shards.

        Accumulation structure per strategy (chosen so an fp32 ``k``-round
        step stays bit-identical to the same global batch on a
        ``k``-times-larger world — the sequential reduction must see the
        same grouping of contributions):

        - ``NO_SHARD``: one deferred all-reduce over all ``k * W``
          contributions (``parts_per_rank=k``).
        - ``FULL_SHARD`` / ``SHARD_GRAD_OP``: one deferred reduce-scatter
          over all ``k * W`` contributions. The larger world also reduces
          everything in one pass; only the shard boundaries differ, and
          the optimizer update is elementwise.
        - ``HYBRID_SHARD`` with ``k > 1``: per-round reduce-scatters
          inside each shard group, then per-shard-index all-reduce across
          replica groups with ``parts_per_rank=k`` — the larger world (at
          the same shard size) has ``k``-times the replica groups and
          computes this exact mean-of-round-partials, so a deferred
          single-stage reduction would *not* match. The stage-1 partials
          are a later collective's inputs and stay allocated. ``k == 1``
          keeps the pre-accumulation call pattern exactly (including
          skipping stage 2 when there is a single replica group).
        - ``HYBRID_SHARD`` *folded* (``self._fold_hybrid``: an explicit
          single-stage :class:`~repro.elastic.layout.ReductionLayout`
          with one replica group): the shard group spans the world, so
          the strategy takes the FULL_SHARD branch — one deferred
          reduce-scatter over all ``k * W`` contributions — reproducing
          a larger single-stage world's grouping bit-exactly.
        """
        k = len(micro_grads)
        world_group = self.world.world_group()
        for u, shards in enumerate(self._shards):
            dest = [shard.grad for shard in shards]
            if self.strategy is ShardingStrategy.NO_SHARD:
                bufs = [
                    micro_grads[j][r][u]
                    for j in range(k)
                    for r in range(self.world.size)
                ]
                self._mean_reduce("all_reduce", bufs, world_group, k, out=dest[0])
                continue
            if self.strategy is not ShardingStrategy.HYBRID_SHARD or self._fold_hybrid:
                # One shard group spans the world: a single deferred
                # reduce-scatter over every (round, rank) contribution.
                group = self.mesh.shard_groups[0]
                bufs = [
                    micro_grads[j][r][u]
                    for j in range(k)
                    for r in group.ranks
                ]
                self._mean_reduce("reduce_scatter", bufs, group, k, out=dest)
                continue
            # HYBRID: reduce-scatter inside every shard group, per round.
            # With one round and one replica group that is the whole
            # reduction; otherwise its partials feed stage 2.
            final = k == 1 and self.mesh.n_replicas == 1
            per_round = [
                [
                    self._mean_reduce(
                        "reduce_scatter",
                        [micro_grads[j][r][u] for r in group.ranks],
                        group,
                        out=dest if final else None,
                    )
                    for group in self.mesh.shard_groups
                ]
                for j in range(k)
            ]
            if final:
                continue
            # Stage 2: all-reduce each shard index across replica groups,
            # folding all rounds' partials in (parts_per_rank=k).
            for s in range(self.shard_size):
                replica_group = self.mesh.replica_groups[s]
                bufs = [
                    per_round[j][g][s]
                    for j in range(k)
                    for g in range(self.mesh.n_replicas)
                ]
                self._mean_reduce("all_reduce", bufs, replica_group, k, out=dest[s])
        return [shard.grad for shards in self._shards for shard in shards]
