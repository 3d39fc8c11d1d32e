"""MeshEngine: tensor/pipeline/data parallelism over one named-axis mesh.

The engine realizes an ``EngineConfig(mesh=MeshSpec(pp, dp, tp))`` as a
3-D :class:`~repro.mesh.device_mesh.DeviceMesh` over the world. It *is*
:class:`~repro.core.engine_core.EngineCore` — lifecycle,
retried/telemetered collectives, checkpoint state, the step skeleton
and the whole dp axis (storage, gathers, reduce: the strategy's row run
over the mesh's dp group, spans tagged ``axis="dp"``) — plus what is the
mesh's own: tp wiring, stage runs and the stash, and the pipeline
schedule that replaces the core's round loop for ``pp > 1``. One
parallelism layer per axis:

``tp`` (innermost)
    Megatron-style GEMM sharding via :class:`~repro.mesh.tp.TPContext`:
    flagged layers route activations/input-gradients through
    load-bearing column-shard all-gathers over the tp group. Weight
    gradients are sharded by construction, so the axis needs no
    gradient collective.
``dp``
    A row of the strategy table over the dp group, executed by the
    core: ``"ddp"`` is the DDP row with its buckets coalesced into one
    full-model gradient buffer (one all-reduce per step over the
    (round, dp-rank) contributions); ``"full_shard"`` keeps flat
    parameters sharded ``dp`` ways, all-gathering them each round and
    reduce-scattering gradients.
``pp`` (outermost)
    Layer-partitioned pipeline stages running a GPipe or 1F1B schedule
    (:mod:`repro.mesh.pipeline`); stage-boundary activations and
    gradients move through ``SimComm.send``.

**Bit-exactness.** Every axis is a fixed-point economy in fp32: tp
gathers reassemble the exact single-GEMM output; the dp reduction
stack-means the same contributions in the same order as the single-rank
oracle running ``grad_accum_steps * dp`` accumulation rounds; pipeline
stages keep every in-flight microbatch's state apart (a per-micro
context dict, a stash of the stage's layer caches, and a workspace lane
under the cached arrays), so any valid schedule equals depth-first
execution. Composed, a
``(pp, dp, tp)`` engine trains fp32 bit-identically to the world-1 DDP
oracle on the same global batch (differential-tested per axis and
jointly; the dp and tp axes on both backends). The engine is therefore
fp32-only: bf16 emulation would need a per-axis rounding story this
substrate does not model yet.

**SPMD economy.** As everywhere in this codebase, all ranks share one
process and one model instance. The tp/pp axes are *data-movement*
axes: computation happens once, and the collectives move the real
bytes so wire accounting is honest. The process backend runs the dp
and tp axes — its workers are the dp ranks, and their tp gather bytes
live in each worker's own ``SimComm`` ledger, fanned in through the
telemetry bus, so per-axis bytes *and* calls agree across backends
(asserted by the cross-backend differential test). It refuses
``pp > 1`` at construction: its workers would run every micro
depth-first and never cross a stage boundary.

**Pipeline work is done once.** The inline schedule interleaves
microbatches on one set of layers, whose activation caches (and the
pooled buffers under them) hold one micro at a time. Rather than
re-running a stage's forward before each backward, the engine parks the
stage's caches per in-flight micro (``Module.take_caches`` /
``put_caches``, skipped when the stage last ran that same micro — every
backward of the last 1F1B stage) and gives each in-flight
``(stage, micro)`` its own :class:`~repro.models.workspace.Workspace`
lane, reused once its backward has drained. Live activations per stage
are therefore the schedule's in-flight peak — ``min(k, pp - s)`` under
1F1B, ``k`` under GPipe — which is what
:mod:`repro.perf.memory_model` prices. Block-level checkpointing
(``TransformerBlock(checkpoint=True)``) stays the memory lever and
composes: the stash then holds only each block's input. Each
stage-backward writes its gradients straight into that micro's outbound
contribution: before it runs, the stage's parameters' ``.grad`` point
at their runs of ``_outbound[j][r]`` (the engine is fp32-only, so the
row needs no wire scaling) and are marked unwritten, so the first
contribution writes and nothing is zeroed, copied or re-zeroed; after
the step every ``.grad`` points home again.

**What stays resident.** The outbound contributions are the core's
``_outbound`` rows, as for every engine (:mod:`repro.core.engine_core`):
``k * dp`` sets (one unsharded gradient per round and dp rank), handed
over by the backend at construction and rewritten in full by every step
— here by the stage-backwards, and a unit's dp padding tail, which no
gradient lands in, by a zeroing — so nothing a failed step left behind
is ever read. The dp collectives write in place: parameter gathers into
``unit.flat`` (whose shards are views of it — nothing moves),
reduce-scatter chunks into each shard's ``grad``, the ddp all-reduce
into the gradient buffer.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.comm.world import World
from repro.core.engine import EngineConfig
from repro.core.engine_core import EngineCore, StepFn
from repro.core.sharding import ShardingStrategy, grad_views
from repro.mesh.device_mesh import DeviceMesh
from repro.mesh.pipeline import partition_stages, schedule_actions
from repro.mesh.spec import MESH_AXIS_NAMES, MeshSpec
from repro.mesh.tp import TPContext
from repro.models.module import Module

__all__ = ["MeshEngine"]


def _validate_tp(model: Module, tp: int) -> None:
    """Reject tp sizes the model's flagged GEMMs cannot shard evenly."""
    for m in model.modules():
        heads = getattr(m, "heads", None)
        if heads is not None and heads % tp != 0:
            raise ValueError(
                f"tp={tp} does not divide the {heads} attention heads of "
                f"{type(m).__name__}; tensor parallelism shards per-head "
                "column blocks"
            )
        if getattr(m, "tp_shard", False):
            for dim, label in (
                (m.out_features, "out_features"),
                (m.in_features, "in_features"),
            ):
                if dim % tp != 0:
                    raise ValueError(
                        f"tp={tp} does not divide {label}={dim} of a "
                        "tp-sharded Linear; pick a tp that divides every "
                        "flagged GEMM width"
                    )


class MeshEngine(EngineCore):
    """Training engine over a ``(pp, dp, tp)`` device mesh.

    Built by :func:`repro.core.engine.make_engine` with
    ``EngineConfig(mesh=MeshSpec(...))`` and strategy ``"ddp"`` or
    ``"full_shard"`` (the dp-axis row). ``train_step`` consumes
    ``grad_accum_steps * dp`` microbatches, round-major over the dp
    axis — micro ``(round j, dp-rank r)`` sits at index ``j * dp + r``
    — matching the ordering of the equivalent single-rank oracle.

    Representative groups: collectives run over the *first* group of
    each axis (``DeviceMesh.groups(axis)[0]``) because the one shared
    model instance stands in for every coordinate of the other axes;
    per-axis byte accounting is unchanged by that choice (the other
    groups would carry identical payloads of the same single model).
    The dp-axis parameter all-gather is likewise issued once over the
    full flat units: pp partitions the parameters across stages and tp
    shards flagged weights, so summing per-(pp, tp)-group gathers of
    parameter slices equals one gather of the whole.
    """

    one_bucket = True

    def __init__(
        self,
        model: Module,
        world: World,
        strategy: ShardingStrategy,
        config: EngineConfig,
    ):
        spec = config.mesh
        if strategy not in (ShardingStrategy.DDP, ShardingStrategy.FULL_SHARD):
            raise ValueError(
                f"strategy {strategy.value!r} cannot run on a mesh; the dp "
                "axis composes with 'ddp' or 'full_shard'"
            )
        if config.precision != "fp32":
            raise ValueError(
                "MeshEngine is fp32-only: the per-axis bit-exactness "
                "contract has no bf16 rounding story yet"
            )
        if spec.size != world.size:
            raise ValueError(
                f"mesh {spec.describe()} occupies {spec.size} ranks but the "
                f"world has {world.size}; pp * dp * tp must equal the world "
                "size"
            )
        if spec.pp > 1 and config.backend == "process":
            raise ValueError(
                f"mesh {spec.describe()} needs backend='inline': the process "
                "backend runs only the dp and tp axes, not pipeline stages"
            )
        if config.shard_size not in (None, spec.dp):
            raise ValueError(
                f"config.shard_size={config.shard_size} conflicts with the "
                f"mesh dp axis; full_shard shards over dp={spec.dp}"
            )
        self.mesh_spec = spec
        self.pp, self.dp, self.tp = spec.shape
        self.schedule = spec.schedule
        self.device_mesh = DeviceMesh(world, spec.shape, MESH_AXIS_NAMES)
        self._tp_group = self.device_mesh.groups("tp")[0]
        self._pp_group = self.device_mesh.groups("pp")[0]
        # tp and pp are data-movement axes over the one shared model:
        # only the dp axis runs distinct microbatches (and workers).
        super().__init__(
            model,
            world,
            strategy,
            config,
            dp_group=self.device_mesh.groups("dp")[0],
            axis="dp",
        )
        self.kind = "mesh"
        self.strategy_name = strategy.value.lower()

    def _launch(self) -> None:
        """Wire the tp and pp axes — which need the core's comm, bus
        and declared storage — before the backend copies the model."""
        model = self.model
        if self.tp > 1:
            _validate_tp(model, self.tp)
            self.tp_context = TPContext(
                self.tp,
                self._tp_group,
                self.comm,
                bus=self.telemetry if self.telemetry.enabled else None,
                retry_policy=self.retry_policy,
            )
            model.use_tensor_parallel(self.tp_context)
        if self.pp > 1:
            ops_fn = getattr(model, "pipeline_ops", None)
            if ops_fn is None:
                raise TypeError(
                    f"pp={self.pp} needs a model exposing pipeline_ops(); "
                    f"{type(model).__name__} does not"
                )
            self._ops = list(ops_fn())
            self._stage_bounds = partition_stages(len(self._ops), self.pp)
            self._stage_params = self._stage_param_lists()
            # The cache-bearing layers each stage runs, and the parked
            # caches of its in-flight micros: _stash[s][j].
            self._stage_layers = [
                [
                    m
                    for op in self._ops[start:stop]
                    for top in op.modules()
                    for m in top.modules()
                    if m._cache_attrs
                ]
                for start, stop in self._stage_bounds
            ]
            self._stash: list[dict[int, list[tuple]]] = [
                {} for _ in range(self.pp)
            ]
        super()._launch()
        if self.pp > 1:
            self._stage_grads, self._padding = self._stage_grad_views()
            # Where .grad points between steps: the ddp row's reduce
            # lands there, and the optimizer and every caller read it.
            self._home_grads = [
                (p, p.grad) for params in self.storage.grad_params for p in params
            ]

    def topology(self) -> dict:
        """The core's record plus the mesh shape and schedule."""
        return {
            **super().topology(),
            "mesh": {
                "pp": self.pp,
                "dp": self.dp,
                "tp": self.tp,
                "schedule": self.schedule,
            },
        }

    # -- collectives -------------------------------------------------------

    def _send(self, arr: np.ndarray, src: int, dst: int) -> np.ndarray:
        """Move a stage-boundary tensor through ``SimComm.send`` (whose
        one copy also makes a strided view contiguous)."""
        bus = self.telemetry
        if bus.enabled:
            with bus.span("comm.send", bytes=float(arr.nbytes), axis="pp"):
                return self.comm.send(arr, src, dst)
        return self.comm.send(arr, src, dst)

    # -- pipeline ----------------------------------------------------------

    def _stage_param_lists(self) -> list[list]:
        """Per-stage parameter ownership; must partition the model."""
        all_params = self.model.parameters()
        known = {id(p) for p in all_params}
        seen: set[int] = set()
        stages: list[list] = []
        for start, stop in self._stage_bounds:
            stage_params = []
            for op in self._ops[start:stop]:
                for p in op.params():
                    if id(p) not in known:
                        raise ValueError(
                            f"pipeline op {type(op).__name__} owns a "
                            "parameter not in model.parameters()"
                        )
                    if id(p) in seen:
                        raise ValueError(
                            f"pipeline op {type(op).__name__} claims a "
                            "parameter another stage already owns"
                        )
                    seen.add(id(p))
                    stage_params.append(p)
            stages.append(stage_params)
        if len(seen) != len(all_params):
            raise ValueError(
                "pipeline ops do not cover every model parameter "
                f"({len(seen)} of {len(all_params)} claimed)"
            )
        return stages

    def _stage_grad_views(self) -> tuple[list, list[np.ndarray]]:
        """Where each stage-backward writes its gradients.

        Returns ``(views, padding)``. ``views[j][r][s]`` pairs every
        parameter of stage ``s`` with its run of the ``_outbound[j][r]``
        contribution — the run its ``.grad`` has in the gradient
        buffers, so a row is laid out as a rank's buffers are.
        ``padding`` lists the rows' dp padding tails, which take no
        gradient and are zeroed each step.
        """
        stage_of = {
            id(p): s for s, params in enumerate(self._stage_params) for p in params
        }
        views, padding = [], []
        for rows in self._outbound:
            per_rank = []
            for row in rows:
                per_stage: list[list[tuple]] = [[] for _ in range(self.pp)]
                for params, out in zip(self.storage.grad_params, row, strict=True):
                    for p, view in zip(params, grad_views(params, out)):
                        per_stage[stage_of[id(p)]].append((p, view))
                    tail = out[sum(p.size for p in params) :]
                    if tail.size:
                        padding.append(tail)
                per_rank.append(per_stage)
            views.append(per_rank)
        return views, padding

    def _run_pipeline(
        self, micros: Sequence[Any], k: int
    ) -> tuple[list[float], list[list[list[np.ndarray]]]]:
        """Drive the pipeline schedule for each dp rank's microbatches.

        Returns ``(losses, grads)`` with losses indexed ``j * dp + r``
        and ``grads`` the core's ``_outbound`` rows, ``[j][r]`` rewritten
        with the rank's contribution for round ``j`` — what the round
        loop returns, so the reduction path downstream is shared.
        """
        bus = self.telemetry
        actions = schedule_actions(self.schedule, k, self.pp)
        # Parameters are static within a step, so the full_shard
        # materialization traffic is booked with the round loop's
        # cadence: one gather set per round plus the backward regather.
        for _ in range(k):
            self._materialize_params()
            self._materialize_params(backward=True)
        losses = [0.0] * (k * self.dp)
        for tail in self._padding:
            tail[...] = 0.0
        ws = self.model.workspace
        try:
            for r in range(self.dp):
                rank_micros = [
                    self._cast_micro(micros[j * self.dp + r]) for j in range(k)
                ]
                with bus.span("compute.fwd_bwd"):
                    self._run_pipeline_rank(r, rank_micros, actions, losses)
        finally:
            # A step that failed mid-schedule must not leak parked
            # activations or leave the pool on an in-flight lane.
            for parked in self._stash:
                parked.clear()
            if ws is not None:
                ws.use_lane(0)
            # Stage-backwards re-pointed .grad at the outbound rows.
            for p, grad in self._home_grads:
                p.grad = grad
                p.unwritten = False
        return losses, self._outbound

    def _run_pipeline_rank(
        self,
        r: int,
        rank_micros: list,
        actions: list,
        losses: list[float],
    ) -> None:
        """Execute the schedule for dp rank ``r``'s ``k`` microbatches.

        Each ``(stage, micro)`` runs its forward once. A stage's layers
        hold one micro's activation caches at a time (``resident``);
        before the stage turns to another micro they are parked in
        ``_stash`` and handed back before that micro's backward. The
        cached arrays are workspace buffers, so every in-flight
        ``(stage, micro)`` also owns a workspace lane from its forward
        until its backward has drained.
        """
        pp = self.pp
        ops = self._ops
        bounds = self._stage_bounds
        ranks = self._pp_group.ranks
        n_micro = len(rank_micros)
        ctxs: list[dict] = [dict() for _ in range(n_micro)]
        # inbox[s][j]: stage s's forward input for micro j (arrives via
        # send from stage s-1); grad_inbox mirrors it for backward.
        inbox: list[list] = [[None] * n_micro for _ in range(pp)]
        grad_inbox: list[list] = [[None] * n_micro for _ in range(pp)]
        ws = self.model.workspace
        for j, micro in enumerate(rank_micros):
            inbox[0][j] = micro if isinstance(micro, tuple) else (micro, None)
        lanes: list[dict[int, int]] = [dict() for _ in range(pp)]
        resident: list[int | None] = [None] * pp
        for kind, s, j in actions:
            start, stop = bounds[s]
            ctx = ctxs[j]
            layers = self._stage_layers[s]
            parked = self._stash[s]
            if resident[s] not in (None, j):
                parked[resident[s]] = [m.take_caches() for m in layers]
            resident[s] = j
            if kind == "fwd":
                if ws is not None:
                    used = lanes[s].values()
                    lane = next(i for i in range(n_micro) if i not in used)
                    lanes[s][j] = lane
                    ws.use_lane(lane)
                x, inbox[s][j] = inbox[s][j], None
                for op in ops[start:stop]:
                    x = op.forward(x, ctx)
                if s < pp - 1:
                    inbox[s + 1][j] = self._send(x, ranks[s], ranks[s + 1])
                else:
                    losses[j * self.dp + r] = float(ctx["output"].loss)
                continue
            if j in parked:
                for m, caches in zip(layers, parked.pop(j)):
                    m.put_caches(caches)
            if ws is not None:
                ws.use_lane(lanes[s].pop(j))
            # The stage backpropagates straight into micro j's
            # contribution, so in-flight micros never mix.
            grads = self._stage_grads[j][r][s]
            for p, view in grads:
                p.grad = view
                p.unwritten = True
            d, grad_inbox[s][j] = grad_inbox[s][j], None  # None: tail seeds it
            for op in reversed(ops[start:stop]):
                d = op.backward(d, ctx)
            for p, _ in grads:
                if p.unwritten:
                    p.zero_grad()
            resident[s] = None  # backward consumed the caches
            if s > 0:
                grad_inbox[s - 1][j] = self._send(d, ranks[s], ranks[s - 1])

    # -- the step ----------------------------------------------------------

    def _forward_backward(self, micros: Sequence[Any], step_fn: StepFn):
        """The core's round loop, except that pipeline stages run their
        schedule in its place."""
        if self.pp > 1:
            return self._run_pipeline(micros, self.grad_accum_steps)
        return super()._forward_backward(micros, step_fn)
