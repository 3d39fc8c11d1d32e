"""EngineCore: the one training engine, run from a strategy row.

The paper swaps parallelism by a setting on one training program; here
that program is :class:`EngineCore` and the setting is a row of
:data:`~repro.core.sharding.STRATEGY_TABLE`. DDP, ``NO_SHARD``,
``FULL_SHARD``, ``SHARD_GRAD_OP`` and ``HYBRID_SHARD`` are the same
class over *a data-parallel group* — the world off a mesh, the mesh's dp
group on one (:class:`~repro.mesh.engine.MeshEngine`, which adds only
the tp / pp axes). :func:`~repro.core.engine.make_engine` is the only
way to build one.

**What the row decides** (nothing else in this module asks which
strategy it is running):

storage
    :func:`~repro.core.sharding.declare_storage` — also called, with
    the same arguments, by every process-backend worker — lays the model
    out as ``params`` + ``grad_groups`` (per-parameter data and
    optimizer slots; one flat gradient buffer per bucket, PyTorch DDP's
    ``gradient_as_bucket_view``) or as ``units`` (flat parameters
    sharded ``shard_size`` ways, one optimizer slot per shard). Either
    way ``grad_buffers`` are a rank's flat gradient buffers in outbound
    order and every ``p.grad`` is a view into one of them, so backward
    writes where the collective reads. The seam (:mod:`repro.backend`)
    re-homes ``storage.arrays()``.
shard size
    :func:`~repro.core.sharding.resolve_shard_size` over the dp group.
gathers
    :meth:`_materialize_params` all-gathers every unit inside each shard
    group before a round's forward (FSDP re-gathers per microbatch even
    when the gradient sync is deferred) and — ``FULL_SHARD``, and
    ``HYBRID_SHARD`` above shard size 1 — again before its backward.
reduce
    :meth:`_reduce_gradients` combines ``grads[j][r][i]`` (round, dp
    rank, gradient buffer: the engine's resident ``_outbound`` rows,
    which :meth:`~repro.core.sharding.Storage.run_rank` filled
    wire-ready) *into the arrays the optimizer reads* (``out=``) and
    returns those arrays.
    A single-stage row hands all ``k * dp`` contributions to one
    deferred ``all_reduce`` / ``reduce_scatter`` (``parts_per_rank``),
    which keeps an fp32 ``k``-round step bit-identical to the same
    global batch on a ``k``-times-larger world. ``HYBRID_SHARD`` is the
    one special case: per-round reduce-scatters inside each shard group,
    then a per-shard-index all-reduce across replica groups folding the
    rounds' partials in — the larger world (at the same shard size) has
    ``k``-times the replica groups and computes this exact
    mean-of-round-partials, so a deferred single stage would *not*
    match. An explicit single-stage
    :class:`~repro.elastic.layout.ReductionLayout` with one replica
    group folds it back to the single-stage path.

One deliberate economy (documented, not a shortcut in numerics): all
ranks hold identical parameters after every step, so the engine keeps a
single model instance and one materialized flat buffer per unit, and
deduplicates optimizer state across replica groups. Per-rank activation
and gradient data are genuinely per-rank.

**Precision cast points**, in step order
(``EngineConfig(precision="bf16")``):

1. **Inputs** of every microbatch are rounded onto the bf16 grid
   (:func:`~repro.precision.bf16_round`) before the forward — the cast
   point real mixed-precision autocast applies at the model boundary.
2. **Outbound gradients** (what a rank contributes to the collective)
   are loss-scaled and rounded to bf16 as ``run_rank`` copies them out
   (:func:`~repro.precision.bf16.bf16_outbound`, inline and in a process
   worker alike): reduction payloads carry only bf16 information, and the
   collective layer books half the wire bytes (``wire_dtype="bf16"``).
3. **Reduced gradients** are unscaled in full precision; under a
   dynamic scaler a non-finite gradient skips the optimizer step (the
   non-finite mean stays in the gradient arrays, unread, until the next
   step's reduce overwrites it) and backs the scale off.
4. **Master weights** in the optimizer apply the update at full
   precision and re-quantize the working parameters
   (:meth:`~repro.optim.base.Optimizer.use_master_weights`).

Accumulation blocks ``micros`` into ``grad_accum_steps`` rounds of
``data_parallel_size`` microbatches.

**What stays resident.** ``_outbound[j][r][i]`` — one unsharded
gradient set per (round, dp rank), ``k * dp`` in all — is handed over
once by the execution backend (private arrays inline, views of the
shared staging block under ``process``) and lives as long as the engine.
Every step rewrites every row in full before the reduce reads it, so
nothing a failed step left behind is ever read. ``HYBRID_SHARD``'s
stage-1 partials live as long, so no row of the table allocates to reduce.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.backend import make_backend
from repro.comm.bucketing import bucket_gradients
from repro.comm.collectives import SimComm
from repro.comm.faults import retry_collective
from repro.comm.world import Group, World, make_hybrid_mesh
from repro.core.engine import EngineConfig
from repro.core.sharding import (
    STRATEGY_TABLE,
    ShardingStrategy,
    declare_storage,
    resolve_shard_size,
)
from repro.elastic.layout import validate_layout
from repro.models.module import Module
from repro.optim.adamw import AdamW
from repro.precision.bf16 import bf16_round, wire_fraction
from repro.precision.scaler import LossScaler
from repro.telemetry import NULL_BUS, TelemetryBus

__all__ = ["EngineCore", "StepFn"]

StepFn = Callable[[Module, Any], float]


class EngineCore:
    """Data-parallel training of one model under any strategy row.

    Parameters
    ----------
    model:
        The NumPy model; its parameters are re-pointed into the row's
        storage at construction.
    world:
        Rank layout (size and ranks-per-node).
    strategy:
        The :class:`~repro.core.sharding.ShardingStrategy` whose row of
        the strategy table this engine runs.
    config:
        The resolved :class:`~repro.core.engine.EngineConfig`.
    dp_group / axis:
        A mesh passes the group its dp axis reduces over and the
        ``axis=`` tag its collectives' spans carry; off a mesh the group
        is the world and the spans are untagged.
    """

    tp_context = None
    #: A mesh coalesces the DDP row's gradient buckets into one buffer
    #: (its dp axis then books one all-reduce per step).
    one_bucket = False

    def __init__(
        self,
        model: Module,
        world: World,
        strategy: ShardingStrategy,
        config: EngineConfig,
        *,
        dp_group: Group | None = None,
        axis: str | None = None,
    ):
        self.config = config
        self.model = model
        self.world = world
        self.comm = config.comm if config.comm is not None else SimComm()
        self.retry_policy = config.retry_policy
        self.telemetry = config.telemetry if config.telemetry is not None else NULL_BUS
        self.precision: str = config.precision
        self.grad_accum_steps: int = config.grad_accum_steps
        self.scaler = LossScaler(
            init_scale=config.loss_scale, dynamic=config.dynamic_loss_scale
        )
        self._wire_dtype = "bf16" if self.precision == "bf16" else None

        self.strategy = strategy
        self.row = row = STRATEGY_TABLE[strategy]
        self.kind = row.kind
        self.strategy_name = strategy.value
        self.dp_group = dp_group if dp_group is not None else world.world_group()
        #: Ranks that run distinct microbatches: the microbatches of one
        #: accumulation round and the process backend's worker count.
        self.data_parallel_size = dp = self.dp_group.size
        self._dp_tags = {} if axis is None else {"axis": axis}
        shards = resolve_shard_size(strategy, config.shard_size, dp)
        self.shard_size = shards if row.storage == "units" else None
        # The logical reduction layout this engine realizes: the row's
        # natural one, or an explicit layout from the elastic machinery,
        # which can *fold* a two-stage reduce into one when there is a
        # single replica group (preserving a larger world's grouping).
        self.layout = validate_layout(
            strategy.value,
            dp,
            self.shard_size,
            config.grad_accum_steps,
            config.reduction_layout,
        )
        # Shard groups gather and reduce-scatter; replica groups
        # all-reduce across them. Only a two-stage row splits the dp
        # group (and no mesh runs one, so that group is the world).
        self._two_stage = len(row.reduce) == 2 and not (
            self.layout.single_stage and shards == dp
        )
        if len(row.reduce) == 2:
            hybrid = make_hybrid_mesh(world, shards)
            self._shard_groups = hybrid.shard_groups
            self._replica_groups = hybrid.replica_groups
        else:
            self._shard_groups, self._replica_groups = (self.dp_group,), ()

        self.storage = declare_storage(
            model,
            strategy,
            shards,
            self._bucket_groups() if row.storage == "params" else None,
        )
        self.params = self.storage.params
        self.units = self.storage.units
        self.grad_groups = self.storage.grad_groups
        self.grad_buffers = self.storage.grad_buffers
        self._launch()

    def _bucket_groups(self) -> list[list[int]]:
        """The DDP row's gradient buckets (fixed-capacity, filled in
        reverse parameter order) as index groups of the parameters."""
        params = self.model.parameters()
        if self.one_bucket:
            return [list(range(len(params)))]
        buckets = bucket_gradients(
            [p.grad.nbytes for p in params],
            cap_bytes=self.config.bucket_cap_bytes,
            first_bucket_cap_bytes=self.config.first_bucket_cap_bytes,
        )
        return [b.param_indices for b in buckets]

    def _launch(self) -> None:
        """Finish construction once the row's storage is declared."""
        cfg = self.config
        # Backend before shards and optimizer: a process backend re-homes
        # p.data / each unit's flat buffer into shared memory, and the
        # flat-shard views and optimizer state (bf16 masters included)
        # must be laid down against that storage.
        self._backend = make_backend(self)
        self._outbound = self._backend.outbound_rows()
        # A two-stage reduce's stage-1 partials ([buffer][round][shard
        # group]: one chunk per shard) are stage 2's inputs, resident like
        # the rows — unless stage 1 is the whole reduce (one round, one group).
        k, groups = self.grad_accum_steps, self._shard_groups
        self._partials = [
            [[list(np.empty_like(buf).reshape(self.shard_size, -1)) for _ in groups]
             for _ in range(k)]
            for buf in self.grad_buffers
        ] if self._two_stage and (k > 1 or len(groups) > 1) else None
        # Where each gradient buffer's reduce lands is what the
        # optimizer reads.
        slots, self._reduce_dests = self.storage.make_slots()
        self._shards = self.storage.shards
        factory = cfg.optimizer_factory if cfg.optimizer_factory is not None else AdamW
        self.optimizer = factory(slots)
        if self.precision == "bf16":
            self.optimizer.use_master_weights(quantize=bf16_round)
        self._backend.start()
        self.step_count = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def telemetry(self) -> TelemetryBus:
        """The instrumentation bus. Assigning it (a trainer shares its
        bus down this way) re-points every holder of a copy."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, bus: TelemetryBus) -> None:
        self._telemetry = bus
        if self.tp_context is not None:
            self.tp_context.bus = bus if bus.enabled else None

    @property
    def backend(self) -> str:
        """Name of the active execution backend (``inline``/``process``)."""
        return self._backend.name

    @property
    def lr(self) -> float:
        """Current learning rate (delegates to the optimizer)."""
        return self.optimizer.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.optimizer.lr = value

    def close(self) -> None:
        """Release backend resources. Idempotent. An inline engine
        holds none and stays trainable. A process engine joins its
        workers and unlinks its shared memory: parameter storage is
        re-homed to private arrays, so checkpointing and evaluation keep
        working, but the outbound rows went with the arena and further
        ``train_step`` calls need a fresh engine."""
        self._backend.shutdown()

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Engine snapshot: model params, optimizer state (master weights
        included under bf16), loss-scaler state, step count.

        Replica-group optimizer state is deduplicated, so this is a
        *global* checkpoint: the flat layout depends only on the model
        and the shard count, and :mod:`repro.elastic` reshards it into
        any other world.
        """
        return {
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "scaler": self.scaler.state_dict(),
            "step_count": self.step_count,
        }

    def load_state_dict(self, sd: dict) -> None:
        """Restore a snapshot taken from an engine with the same model
        architecture, layout kind and shard count."""
        self.model.load_state_dict(sd["model"])
        self.optimizer.load_state_dict(sd["optimizer"])
        if "scaler" in sd:
            self.scaler.load_state_dict(sd["scaler"])
        self.step_count = int(sd["step_count"])

    def topology(self) -> dict:
        """The world/sharding shape a snapshot of this engine assumes.

        Recorded in checkpoint metadata so
        :meth:`~repro.core.trainer.Pretrainer.resume` reshards a snapshot
        into a *different* shape — or refuses it, typed, when the
        trajectory would change — instead of silently diverging.
        """
        return {
            "kind": self.kind,
            "strategy": self.strategy_name,
            "world_size": self.world.size,
            "ranks_per_node": self.world.ranks_per_node,
            "shard_size": self.shard_size,
            "grad_accum_steps": self.grad_accum_steps,
            "layout": {"total": self.layout.total, "chunk": self.layout.chunk},
            "precision": self.precision,
            "backend": self.backend,
        }

    # -- collectives -------------------------------------------------------

    def _collective(self, fn, op: str = "collective", nbytes: float = 0.0, **span_tags):
        """Issue one collective, retrying transient failures per policy
        (span and retry counters: :func:`retry_collective`).

        Collectives are pure functions of buffers a failed attempt never
        wrote, so a retried step is bit-identical to an uninterrupted
        one.
        """
        return retry_collective(
            fn, self.retry_policy, self.comm.stats, self.telemetry, op, nbytes,
            **span_tags,
        )

    def _gather_units(self, groups: Iterable, **span_tags) -> None:
        """All-gather every unit's shards over each of ``groups``.

        The shards are views of ``unit.flat``, which is also the receive
        buffer (``out=``): the in-place gather of NCCL and PyTorch FSDP,
        which moves no bytes here. Issuing it still runs the collective
        layer's accounting and fault path, which is the point.
        """
        for unit in self.units:
            shards = [unit.shard_view(j) for j in range(self.shard_size)]
            for group in groups:
                self._collective(
                    lambda: self.comm.all_gather(
                        shards, group, out=unit.flat, wire_dtype=self._wire_dtype
                    ),
                    op="all_gather",
                    nbytes=self._wire_nbytes(unit.flat.nbytes),
                    **span_tags,
                )

    def _mean_reduce(self, op: str, bufs, group, parts: int = 1, out=None, **span_tags):
        """Mean ``bufs`` over ``group`` through ``comm.<op>``
        (``all_reduce`` / ``reduce_scatter``): ``parts`` round-major
        accumulation contributions per rank enter the one call, and
        ``out`` receives the result in place (one buffer for an
        all-reduce, the chunk list for a reduce-scatter)."""
        return self._collective(
            lambda: getattr(self.comm, op)(
                bufs,
                group,
                op="mean",
                parts_per_rank=parts,
                out=out,
                wire_dtype=self._wire_dtype,
            ),
            op=op,
            nbytes=self._wire_nbytes(bufs[0].nbytes),
            **span_tags,
        )

    def _wire_nbytes(self, nbytes: float) -> float:
        """Logical payload bytes of a native buffer at the wire dtype."""
        if self._wire_dtype is None:
            return float(nbytes)
        return nbytes * wire_fraction(self._wire_dtype)

    def _wire_scale(self) -> float | None:
        """What a backend hands ``Storage.run_rank`` as ``scale``: the
        loss scale on the bf16 wire, ``None`` on the fp32 one."""
        return self.scaler.scale if self.precision == "bf16" else None

    # -- the step ----------------------------------------------------------

    def train_step(self, micros: Sequence[Any], step_fn: StepFn) -> float:
        """One optimizer step over ``grad_accum_steps *
        data_parallel_size`` microbatches.

        ``step_fn(model, micro)`` must run forward *and* backward for one
        microbatch (accumulating into the model's gradients) and return
        the scalar loss. Microbatches are consumed round-major — micro
        ``(round j, rank r)`` sits at index ``j * data_parallel_size +
        r`` — and the optimizer fires once per call. Returns the mean
        loss across all microbatches. In fp32 the step is bit-identical
        to the world-1 DDP oracle accumulating the same micros, for
        every layout (tested).
        """
        k, dp = self.grad_accum_steps, self.data_parallel_size
        if len(micros) != k * dp:
            raise ValueError(
                f"need {k * dp} microbatches ({k} accumulation round(s) x "
                f"{dp} rank(s)), got {len(micros)}"
            )
        bus = self.telemetry
        bus.set_step(self.step_count)
        if bus.enabled:
            # Per-step gauges of non-default precision/accumulation runs.
            if k > 1:
                bus.gauge("train.grad_accum_steps", float(k))
            if self.precision != "fp32" or self.scaler.enabled:
                bus.gauge("precision.loss_scale", self.scaler.scale)
        try:
            losses, grads = self._forward_backward(micros, step_fn)
            reduced = self._reduce_gradients(grads)
        except Exception:
            # A step_fn that raises mid-chain, or a collective whose
            # retry budget ran out, would otherwise leave every module
            # holding its activation cache — a whole model's worth of
            # arrays pinned while the caller decides whether to re-drive
            # the step.
            self.model.release_caches()
            raise
        if self._grad_postprocess(reduced):
            with bus.span("optim.step"):
                self.optimizer.step()
        self.step_count += 1
        return float(np.mean(losses))

    def _forward_backward(
        self, micros: Sequence[Any], step_fn: StepFn
    ) -> tuple[list[float], list[list[list[np.ndarray]]]]:
        """Run every round on the execution backend.

        Returns ``(losses, grads)``: losses in micro order and the
        resident ``_outbound`` rows every rank just rewrote —
        ``grads[j][r][i]``, round j, rank r's outbound copy of gradient
        buffer i, already loss-scaled/quantized for the wire.
        """
        dp = self.data_parallel_size
        losses: list[float] = []
        for j in range(self.grad_accum_steps):
            self._materialize_params()
            with self.telemetry.span("compute.fwd_bwd"):
                cast = [self._cast_micro(micros[j * dp + r]) for r in range(dp)]
                losses.extend(self._backend.run_round(j, cast, step_fn))
            self._materialize_params(backward=True)
        return losses, self._outbound

    def _materialize_params(self, backward: bool = False) -> None:
        """All-gather every unit inside each shard group when the row
        gathers for a round's forward / regathers for its backward."""
        if self.units is not None and self.row.gathers(self.shard_size, backward):
            self._gather_units(self._shard_groups, **self._dp_tags)

    def _reduce_stage(self, op, rounds, i, group, out) -> None:
        """One collective of the reduce: gradient buffer ``i`` of every
        (round, rank of ``group``) contribution in ``rounds``,
        round-major, meaned into ``out``."""
        at = self.dp_group.index_of
        bufs = [per_rank[at(r)][i] for per_rank in rounds for r in group.ranks]
        self._mean_reduce(op, bufs, group, len(rounds), out=out, **self._dp_tags)

    def _reduce_gradients(self, grads: list[list[list[np.ndarray]]]) -> list[np.ndarray]:
        """Reduce all rounds' per-rank contributions into the arrays the
        optimizer reads, by the row's reduce sequence, and return those
        arrays (buffer-major: the order of the optimizer's flat shards).
        The inputs are the outbound rows, never the buffers backward
        writes, so a retried collective sees them unchanged; see the
        module docstring for why each row's grouping keeps accumulation
        bit-exact."""
        k = len(grads)
        op = self.row.reduce[0]
        for i, dest in enumerate(self._reduce_dests):
            if not self._two_stage:
                out = dest if op == "reduce_scatter" else dest[0]
                self._reduce_stage(op, grads, i, self.dp_group, out)
                continue
            # Stage 1 inside every shard group, per round: into the
            # partials, or the optimizer's arrays when it is the reduce.
            partials = self._partials[i] if self._partials is not None else [[dest]]
            for round_, per_group in zip(grads, partials, strict=True):
                for group, out in zip(self._shard_groups, per_group, strict=True):
                    self._reduce_stage(op, [round_], i, group, out)
            if self._partials is None:
                continue
            # Stage 2: each shard index across replica groups, folding
            # all rounds' partials in (parts_per_rank=k).
            for s, group in enumerate(self._replica_groups):
                bufs = [chunks[s] for per_group in partials for chunks in per_group]
                self._mean_reduce(
                    self.row.reduce[1], bufs, group, k, out=dest[s], **self._dp_tags
                )
        return [g for dest in self._reduce_dests for g in dest]

    def _cast_micro(self, micro: Any) -> Any:
        """Round a microbatch's floating arrays onto the bf16 grid.

        Microbatches are opaque to the engine except for this cast:
        bare arrays and (nested) tuples/lists of arrays are handled;
        non-float leaves pass through untouched.
        """
        if self.precision != "bf16":
            return micro
        return _cast_tree(micro)

    def _grad_postprocess(self, reduced: list[np.ndarray]) -> bool:
        """Unscale reduced gradients in place (bf16 only: fp32 never
        scaled them on the way out); decide whether to step.

        Returns False — and advances the dynamic scaler's backoff —
        when a non-finite gradient means this optimizer step must be
        skipped. On the fp32 default path this touches nothing.
        """
        s = self.scaler.scale
        if self.precision == "bf16" and s != 1.0:
            for a in reduced:
                np.divide(a, s, out=a)
        if not self.scaler.dynamic:
            return True
        found_inf = any(not np.isfinite(a).all() for a in reduced)
        self.scaler.update(found_inf)
        if found_inf and self.telemetry.enabled:
            self.telemetry.counter("precision.skipped_steps", 1)
        return not found_inf


def _cast_tree(micro: Any) -> Any:
    if isinstance(micro, np.ndarray):
        return bf16_round(micro) if micro.dtype.kind == "f" else micro
    if isinstance(micro, (tuple, list)):
        return type(micro)(_cast_tree(m) for m in micro)
    return micro
