"""Executable mini-FSDP engine.

Runs real training of a NumPy model under the paper's sharding
strategies, with all ranks of the job simulated SPMD-style inside one
process. The engine is *numerically faithful*:

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
are provably identical after the all-reduce; ``check_replicas=True``
asserts it). Per-rank activation and gradient data are genuinely
per-rank.

The tests in ``tests/test_core`` assert bit-level (<=1e-9) equivalence of
parameters after multi-step training across every strategy and against a
single-process large-batch reference.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.backend import GemmPool, make_backend
from repro.comm.collectives import SimComm
from repro.comm.faults import CollectiveError, RetryPolicy, call_with_retry
from repro.comm.world import World, make_hybrid_mesh
from repro.core.engine import EngineConfig
from repro.core.mixed_precision import MixedPrecisionMixin
from repro.core.sharding import (
    BackwardPrefetch,
    FlatUnit,
    ShardingStrategy,
    default_wrap_units,
)
from repro.elastic.layout import validate_layout
from repro.models.module import Module
from repro.optim.adamw import AdamW
from repro.optim.base import Optimizer
from repro.telemetry import NULL_BUS

__all__ = ["FSDPEngine"]

StepFn = Callable[[Module, Any], float]
OptimizerFactory = Callable[[Sequence], Optimizer]

#: Removed legacy kwarg -> canonical parameter it renamed (migration
#: hint). The one-shot DeprecationWarning shims completed their cycle;
#: passing one of these is now a hard TypeError.
_REMOVED_KWARGS = {
    "sharding_strategy": "strategy",
    "prefetch": "backward_prefetch",
}


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


class FSDPEngine(MixedPrecisionMixin):
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
    backward_prefetch:
        Recorded for parity with the performance model; has no numeric
        effect (prefetch changes *when* data moves, not *what* moves).
    check_replicas:
        Assert replica-group gradient shards agree after all-reduce.
    retry_policy:
        Bounded backoff for transient collective failures
        (:class:`~repro.comm.faults.CollectiveError`). Collectives are
        pure functions of immutable per-rank buffers, so a retried step
        is bit-identical to an uninterrupted one. ``None`` disables
        retries.
    config:
        Shared :class:`~repro.core.engine.EngineConfig`; when given it
        wins over the individual kwargs (which are kept for
        compatibility — prefer :func:`~repro.core.engine.make_engine`).
    telemetry:
        Instrumentation bus; every collective becomes a ``comm.<op>``
        span with bytes attached, forward/backward a ``compute.fwd_bwd``
        span, and retry backoff is attributed to the current step.
    """

    def __init__(
        self,
        model: Module,
        world: World,
        strategy: ShardingStrategy = ShardingStrategy.FULL_SHARD,
        shard_size: int | None = None,
        optimizer_factory: OptimizerFactory | None = None,
        comm: SimComm | None = None,
        backward_prefetch: BackwardPrefetch = BackwardPrefetch.BACKWARD_PRE,
        check_replicas: bool = False,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        *,
        config: EngineConfig | None = None,
        telemetry=None,
        **legacy,
    ):
        for old, new in _REMOVED_KWARGS.items():
            if old in legacy:
                raise TypeError(
                    f"FSDPEngine({old}=...) was removed; pass {new}= "
                    "directly (or through EngineConfig / make_engine)"
                )
        if legacy:
            raise TypeError(f"unknown FSDPEngine kwargs: {sorted(legacy)}")
        if config is None:
            config = EngineConfig(
                optimizer_factory=optimizer_factory,
                comm=comm,
                shard_size=shard_size,
                backward_prefetch=backward_prefetch,
                check_replicas=check_replicas,
                retry_policy=retry_policy,
                telemetry=telemetry,
            )
        self.config = config
        self.model = model
        self.world = world
        self.strategy = strategy
        self.shard_size = _resolve_shard_size(strategy, config.shard_size, world)
        self.comm = config.comm if config.comm is not None else SimComm()
        self.backward_prefetch = config.backward_prefetch
        self.check_replicas = config.check_replicas
        self.retry_policy = config.retry_policy
        self.telemetry = config.telemetry if config.telemetry is not None else NULL_BUS

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
        self.gemm_pool = (
            GemmPool(config.intra_op_threads)
            if config.intra_op_threads > 1
            else None
        )
        if self.gemm_pool is not None:
            model.use_gemm_pool(self.gemm_pool)
        # Backend before shards/optimizer: a process backend re-homes each
        # unit's flat buffer into shared memory, and the flat-shard views
        # (and optimizer state against them) must alias that storage.
        self._backend = make_backend(self)
        self._shards = [u.make_shards() for u in self.units]
        flat_shard_params = [s for shards in self._shards for s in shards]
        factory = (
            config.optimizer_factory
            if config.optimizer_factory is not None
            else AdamW
        )
        self.optimizer = factory(flat_shard_params)
        self._init_precision()
        self._backend.start()
        self.step_count = 0

    # -- execution backend hooks -------------------------------------------

    @property
    def backend(self) -> str:
        """Name of the active execution backend (``inline``/``process``)."""
        return self._backend.name

    def _zero_local_grads(self) -> None:
        """Zero one rank's local gradients before its microbatch."""
        for u in self.units:
            u.zero_grad()

    def _collect_rank_grads(self) -> list[np.ndarray]:
        """One rank's outbound (wire-ready) flat gradient per unit."""
        return [self._outbound_grad(u.read_grad(), owned=True) for u in self.units]

    def close(self) -> None:
        """Release backend resources (worker processes, shared memory,
        GEMM threads). Idempotent. Parameter storage is re-homed to
        private arrays, so checkpointing and evaluation keep working;
        further ``train_step`` calls need a fresh engine."""
        self._backend.shutdown()
        if self.gemm_pool is not None:
            self.gemm_pool.close()

    # -- properties --------------------------------------------------------

    @property
    def lr(self) -> float:
        """Current learning rate (delegates to the optimizer)."""
        return self.optimizer.lr

    @lr.setter
    def lr(self, value: float) -> None:
        """Current learning rate (delegates to the optimizer)."""
        self.optimizer.lr = value

    def n_params(self) -> int:
        """Total (unpadded) parameters across units."""
        return sum(u.plan.numel for u in self.units)

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Engine snapshot: model params, optimizer state, step count.

        Because replica-group optimizer state is deduplicated, this is a
        *global* checkpoint: any world size / strategy can restore it
        (the flat layout depends only on the model and shard count, and
        the loader re-flattens through the model's state dict).
        """
        return {
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "scaler": self.scaler.state_dict(),
            "step_count": self.step_count,
        }

    def load_state_dict(self, sd: dict) -> None:
        """Restore a snapshot taken from an engine with the same model
        architecture and shard count."""
        self.model.load_state_dict(sd["model"])
        self.optimizer.load_state_dict(sd["optimizer"])
        if "scaler" in sd:
            self.scaler.load_state_dict(sd["scaler"])
        self.step_count = int(sd["step_count"])

    def topology(self) -> dict:
        """The world/sharding shape a snapshot of this engine assumes.

        Recorded in checkpoint metadata so a resume into a *different*
        shape fails with a typed error (or reshards through
        :mod:`repro.elastic`) instead of silently diverging.
        """
        return {
            "kind": "fsdp",
            "strategy": self.strategy.value,
            "world_size": self.world.size,
            "ranks_per_node": self.world.ranks_per_node,
            "shard_size": self.shard_size,
            "grad_accum_steps": self.grad_accum_steps,
            "layout": {"total": self.layout.total, "chunk": self.layout.chunk},
            "precision": self.precision,
            "backend": self.backend,
        }

    # -- collective phases ---------------------------------------------------

    def _collective(self, fn, op: str = "collective", nbytes: float = 0.0):
        """Issue one collective, retrying transient failures per policy.

        With telemetry enabled the call is wrapped in a ``comm.<op>``
        span (bytes attached) and retries/backoff are emitted as
        step-attributed counters even when the retry budget is exhausted
        — backoff time is never silently dropped from the step account.
        """
        bus = self.telemetry
        if not bus.enabled:
            return call_with_retry(fn, self.retry_policy, stats=self.comm.stats)
        stats = self.comm.stats
        retries0 = stats.total_retries
        backoff0 = stats.backoff_seconds
        try:
            with bus.span(f"comm.{op}", bytes=float(nbytes)):
                return call_with_retry(fn, self.retry_policy, stats=stats)
        finally:
            if stats.total_retries != retries0:
                bus.counter("comm.retries", stats.total_retries - retries0, op=op)
                bus.counter(
                    "comm.backoff_s", stats.backoff_seconds - backoff0, op=op
                )

    def _issue_param_allgathers(self) -> None:
        """All-gather every unit's shards within each shard group.

        The shards are views of ``unit.flat``, which is also the receive
        buffer (``out=``): the in-place gather of NCCL and PyTorch FSDP,
        which moves no bytes here. Issuing it still runs the collective
        layer's accounting and fault path, which is the point.
        """
        if self.shard_size == 1:
            return
        for unit in self.units:
            for group in self.mesh.shard_groups:
                shards = [unit.shard_view(j) for j in range(self.shard_size)]
                self._collective(
                    lambda: self.comm.all_gather(
                        shards, group, out=unit.flat, wire_dtype=self._wire_dtype
                    ),
                    op="all_gather",
                    nbytes=self._wire_nbytes(unit.flat.nbytes),
                )

    def _reduce_gradients(
        self, micro_grads: list[list[list[np.ndarray]]]
    ) -> list[list[np.ndarray]]:
        """Combine per-round per-rank flat gradients into shard gradients.

        ``micro_grads[j][r][u]`` is accumulation round j, rank r's flat
        gradient of unit u. Returns ``shard_grads[u][s]``: the reduced
        gradient of shard s of unit u (identical across replica groups).

        Accumulation structure per strategy (chosen so an fp32 ``k``-round
        step stays bit-identical to the same global batch on a
        ``k``-times-larger world — NumPy's axis-0 stack reduction must see
        the same grouping of contributions):

        - ``NO_SHARD``: one deferred all-reduce over all ``k * W``
          contributions (``parts_per_rank=k``).
        - ``FULL_SHARD`` / ``SHARD_GRAD_OP``: one deferred reduce-scatter
          over all ``k * W`` contributions. The larger world also reduces
          everything in one stack; only the shard boundaries differ, and
          the optimizer update is elementwise.
        - ``HYBRID_SHARD`` with ``k > 1``: per-round reduce-scatters
          inside each shard group, then per-shard-index all-reduce across
          replica groups with ``parts_per_rank=k`` — the larger world (at
          the same shard size) has ``k``-times the replica groups and
          computes this exact mean-of-round-partials, so a deferred
          single-stage reduction would *not* match. ``k == 1`` keeps the
          pre-accumulation call pattern exactly (including skipping stage
          2 when there is a single replica group).
        - ``HYBRID_SHARD`` *folded* (``self._fold_hybrid``: an explicit
          single-stage :class:`~repro.elastic.layout.ReductionLayout`
          with one replica group): the shard group spans the world, so
          the strategy takes the FULL_SHARD branch — one deferred
          reduce-scatter over all ``k * W`` contributions — reproducing
          a larger single-stage world's grouping bit-exactly.
        """
        k = len(micro_grads)
        world_group = self.world.world_group()
        wire = self._wire_dtype
        out: list[list[np.ndarray]] = []
        for u in range(len(self.units)):
            if self.strategy is ShardingStrategy.NO_SHARD:
                bufs = [
                    micro_grads[j][r][u]
                    for j in range(k)
                    for r in range(self.world.size)
                ]
                reduced = self._collective(
                    lambda: self.comm.all_reduce(
                        bufs,
                        world_group,
                        op="mean",
                        parts_per_rank=k,
                        wire_dtype=wire,
                    ),
                    op="all_reduce",
                    nbytes=self._wire_nbytes(bufs[0].nbytes),
                )
                out.append([reduced[0]])
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
                out.append(
                    self._collective(
                        lambda: self.comm.reduce_scatter(
                            bufs,
                            group,
                            op="mean",
                            parts_per_rank=k,
                            wire_dtype=wire,
                        ),
                        op="reduce_scatter",
                        nbytes=self._wire_nbytes(bufs[0].nbytes),
                    )
                )
                continue
            # HYBRID: reduce-scatter inside every shard group, per round.
            per_round: list[list[list[np.ndarray]]] = []
            for j in range(k):
                per_group: list[list[np.ndarray]] = []
                for group in self.mesh.shard_groups:
                    bufs = [micro_grads[j][r][u] for r in group.ranks]
                    per_group.append(
                        self._collective(
                            lambda: self.comm.reduce_scatter(
                                bufs, group, op="mean", wire_dtype=wire
                            ),
                            op="reduce_scatter",
                            nbytes=self._wire_nbytes(bufs[0].nbytes),
                        )
                    )
                per_round.append(per_group)
            if k == 1 and self.mesh.n_replicas == 1:
                out.append(per_round[0][0])
                continue
            # Stage 2: all-reduce each shard index across replica groups,
            # folding all rounds' partials in (parts_per_rank=k).
            shard_grads: list[np.ndarray] = []
            for s in range(self.shard_size):
                replica_group = self.mesh.replica_groups[s]
                bufs = [
                    per_round[j][g][s]
                    for j in range(k)
                    for g in range(self.mesh.n_replicas)
                ]
                reduced = self._collective(
                    lambda: self.comm.all_reduce(
                        bufs,
                        replica_group,
                        op="mean",
                        parts_per_rank=k,
                        wire_dtype=wire,
                    ),
                    op="all_reduce",
                    nbytes=self._wire_nbytes(bufs[0].nbytes),
                )
                if self.check_replicas:
                    for r in reduced[1:]:
                        np.testing.assert_allclose(r, reduced[0], rtol=0, atol=1e-12)
                shard_grads.append(reduced[0])
            out.append(shard_grads)
        return out

    # -- the step ------------------------------------------------------------

    def train_step(self, micros: Sequence[Any], step_fn: StepFn) -> float:
        """One optimizer step over ``grad_accum_steps * world.size`` micros.

        ``step_fn(model, micro)`` must run forward *and* backward for one
        microbatch (accumulating into the model's gradients) and return
        the scalar loss. Microbatches are consumed round-major (round 0's
        per-rank micros, then round 1's, ...); the optimizer fires once
        per call. Returns the mean loss across all microbatches. Under
        bf16, inputs and outbound gradients are rounded onto the bf16
        grid and reductions book half the wire bytes.
        """
        self._check_micros(micros)
        k = self.grad_accum_steps
        bus = self.telemetry
        bus.set_step(self.step_count)
        self._emit_precision_gauges()

        # Per-round materialization + per-rank forward/backward.
        losses = []
        # micro_grads[j][r][u]: round j, rank r's flat gradient of unit u,
        # already loss-scaled/quantized for the wire.
        micro_grads: list[list[list[np.ndarray]]] = []
        try:
            for j in range(k):
                # Forward parameter materialization (every round: FSDP
                # re-gathers parameters per microbatch even when the
                # gradient sync is deferred).
                self._issue_param_allgathers()
                with bus.span("compute.fwd_bwd"):
                    cast = [
                        self._cast_micro(micros[j * self.world.size + r])
                        for r in range(self.world.size)
                    ]
                    round_losses, per_rank = self._backend.run_round(
                        j, cast, step_fn
                    )
                    losses.extend(round_losses)
                    micro_grads.append(per_rank)
                # FULL_SHARD re-gathers parameters during backward.
                if self.strategy is ShardingStrategy.FULL_SHARD:
                    self._issue_param_allgathers()
        except Exception:
            # Don't pin a model's worth of activations when a microbatch
            # (or a materialization collective) fails mid-step — same
            # cleanup contract as DDPEngine.
            self.model.release_caches()
            raise

        try:
            shard_grads = self._reduce_gradients(micro_grads)
        except CollectiveError:
            # Retry budget exhausted mid-collective-phase: extend the
            # failed-step cleanup to the comm path too, so re-driving the
            # step starts from a clean cache state.
            self.model.release_caches()
            raise

        flat = [g for unit_grads in shard_grads for g in unit_grads]
        apply_update = self._grad_postprocess(flat)

        # Optimizer on the flat shards (views -> model updated in place).
        if apply_update:
            with bus.span("optim.step"):
                for u, shards in enumerate(self._shards):
                    for s, shard in enumerate(shards):
                        shard.grad[...] = shard_grads[u][s]
                self.optimizer.step()
        self.step_count += 1
        return float(np.mean(losses))
