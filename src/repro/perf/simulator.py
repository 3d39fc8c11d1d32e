"""End-to-end training-step simulator (drives Figures 1-4).

Combines the compute model, collective cost model, schedule builder,
memory model, and IO model into one object that answers: *for this model,
on this many Frontier nodes, under this sharding strategy, what does one
training step look like?*
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.comm.world import World
from repro.core.config import MAEConfig, ViTConfig
from repro.core.sharding import (
    STRATEGY_TABLE,
    BackwardPrefetch,
    ShardingStrategy,
    resolve_shard_size,
)
from repro.hardware.frontier import Machine
from repro.hardware.power import PowerModel, PowerTrace
from repro.mesh.pipeline import partition_stages
from repro.mesh.spec import MeshSpec
from repro.perf.compute_model import (
    BYTES_PER_PARAM,
    mae_workload_units,
    vit_workload_units,
)
from repro.perf.io_model import IoModel
from repro.perf.memory_model import MemoryBreakdown, memory_breakdown
from repro.perf.mesh_model import (
    mesh_axis_placements,
    p2p_seconds,
    pp_boundary_crosses_nodes,
    unit_mesh_profiles,
)
from repro.perf.schedule import (
    MeshCommPlan,
    ScheduleParams,
    StepSchedule,
    TpUnitComm,
    build_step_schedule,
    compose_pipeline,
    pipeline_bubble_fraction,
)

__all__ = ["PerfParams", "StepBreakdown", "TrainStepSimulator"]

#: Bytes touched per parameter by a fused AdamW step (read p/g/m/v, write
#: p/m/v at fp32).
_ADAMW_BYTES_PER_PARAM = 28
#: Fixed per-step host-side overhead (python loop, dataloader handoff).
_HOST_OVERHEAD_S = 5e-3
#: Throughput tax of the real data pipeline vs cached synthetic inputs.
_DATALOADER_OVERHEAD = 0.04


@dataclass(frozen=True)
class PerfParams:
    """User-facing simulation knobs.

    The reallocation-pressure parameters model a measured Frontier
    pathology the paper's Fig. 4 observations hinge on: strategies that
    re-materialize parameters every step (FULL_SHARD and HYBRID with
    shard groups > 1) continuously allocate and free large buffers; when
    resident memory is a large fraction of HBM, the caching allocator
    falls back to slow synchronous frees and the whole step slows down.
    Statically-allocated strategies (NO_SHARD, DDP, HYBRID_1GPU, and
    SHARD_GRAD_OP's resident parameters) are immune — which is exactly
    why the paper can run a 60 GB-resident ViT-3B fastest with
    HYBRID_1GPU (Fig. 3) while the ViT-5B's HYBRID_2GPUs (memory-tight)
    loses to HYBRID_8GPUs (memory-light) at scale (Fig. 4).
    """

    local_batch: int = 32
    prefetch: BackwardPrefetch = BackwardPrefetch.BACKWARD_PRE
    limit_all_gathers: bool = True
    schedule: ScheduleParams = ScheduleParams()
    #: Training precision: "fp32" or "bf16". bf16 halves every collective
    #: payload (wire dtype) and the activation/transient widths in the
    #: memory model; the optimizer step stays fp32-bound (master-weight
    #: update traffic is unchanged, see ``_ADAMW_BYTES_PER_PARAM``).
    precision: str = "fp32"
    #: Microbatch rounds per optimizer step. Affects the memory model
    #: only (the unsharded fp32 accumulation buffer): per-step comm and
    #: compute are modeled per microbatch round, which accumulation does
    #: not change.
    grad_accum_steps: int = 1
    #: HBM-occupancy fraction above which reallocation slowdown kicks in.
    realloc_pressure_threshold: float = 0.55
    #: Compute-time inflation at 100% HBM occupancy (quadratic ramp).
    realloc_penalty: float = 6.0
    #: Mesh composition (tp x pp x dp). ``None`` keeps the historical
    #: dp-only model. When set, ``mesh.size`` must equal the machine's
    #: world size and the dp sharding ``strategy`` applies over the dp
    #: axis only.
    mesh: MeshSpec | None = None
    #: Microbatches in flight per pipelined step; ``0`` resolves to
    #: ``max(pp, grad_accum_steps)`` (enough micros to fill the pipe).
    pipeline_micros: int = 0

    def resolved_micros(self) -> int:
        """Microbatch rounds of one optimizer step under the mesh."""
        if self.pipeline_micros:
            return self.pipeline_micros
        pp = self.mesh.pp if self.mesh is not None else 1
        return max(pp, self.grad_accum_steps)

    def resolved_schedule(self, optimizer_seconds: float) -> ScheduleParams:
        """Schedule params with prefetch/limit/precision/optimizer applied."""
        return replace(
            self.schedule,
            prefetch=self.prefetch,
            limit_all_gathers=self.limit_all_gathers,
            optimizer_seconds=optimizer_seconds,
            wire_dtype=self.precision,
        )


@dataclass(frozen=True)
class StepBreakdown:
    """Everything the paper reports about one training step."""

    step_time_s: float  # 'syn': compute + communication, cached data
    step_time_no_comm_s: float  # 'syn no comm'
    io_step_time_s: float  # dataloader-only time per step ('IO')
    real_step_time_s: float  # 'real': full application
    comm_seconds: float
    exposed_comm_seconds: float
    comm_calls: int
    compute_seconds: float
    world_size: int
    local_batch: int
    memory: MemoryBreakdown
    #: Images consumed per optimizer step; ``0`` means the historical
    #: dp-only convention (``world_size * local_batch``). Mesh steps set
    #: it explicitly (only dp replicas consume data, times the
    #: microbatch rounds in flight).
    images_per_step: int = 0
    #: Pipeline fill/drain share of the step (0.0 without a mesh).
    bubble_fraction: float = 0.0
    #: Predicted per-axis communication seconds ("tp"/"pp"/"dp").
    axis_comm_seconds: dict = field(default_factory=dict)

    def _ips(self, t: float) -> float:
        # 0.0 (not inf) for degenerate non-positive times: a step that
        # "takes no time" delivers no images, and downstream tables must
        # stay finite.
        if t <= 0:
            return 0.0
        images = self.images_per_step or self.world_size * self.local_batch
        return images / t

    @property
    def ips(self) -> float:
        """Global images/second of the synthetic (compute+comm) run."""
        return self._ips(self.step_time_s)

    @property
    def ips_no_comm(self) -> float:
        """Images/second without communication ('syn no comm')."""
        return self._ips(self.step_time_no_comm_s)

    @property
    def ips_io(self) -> float:
        """Images/second of the dataloader alone ('IO')."""
        return self._ips(self.io_step_time_s)

    @property
    def ips_real(self) -> float:
        """Images/second of the full application ('real')."""
        return self._ips(self.real_step_time_s)

    @property
    def comm_fraction(self) -> float:
        """Share of the synthetic step lost to (exposed) communication."""
        return self.exposed_comm_seconds / self.step_time_s if self.step_time_s else 0.0

    @property
    def compute_occupancy(self) -> float:
        """Share of the step spent computing (0.0 for zero-time steps)."""
        if self.step_time_s <= 0:
            return 0.0
        return min(1.0, self.compute_seconds / self.step_time_s)

    @property
    def comm_occupancy(self) -> float:
        """Fraction of the step with communication in flight.

        Defined so that ``compute_occupancy + max(0, comm_occupancy -
        compute_occupancy)`` — the power model's busy fraction — equals
        the schedule's true busy share (compute plus *exposed*
        communication); overlapped communication is already inside the
        compute span. 0.0 for degenerate zero-time steps.
        """
        if self.step_time_s <= 0:
            return 0.0
        return min(
            1.0,
            self.compute_occupancy + self.exposed_comm_seconds / self.step_time_s,
        )


class TrainStepSimulator:
    """Simulates one training step of a ViT or MAE workload.

    Parameters
    ----------
    model:
        A :class:`ViTConfig` (plain encoder training, paper Figs. 2-4) or
        :class:`MAEConfig` (pretraining workload, paper Fig. 1).
    machine:
        A machine slice from :func:`repro.hardware.frontier_machine`.
    strategy / shard_size:
        Sharding configuration (shard_size for HYBRID_SHARD only).
    params:
        Simulation knobs (local batch, prefetch policy, ...).
    io:
        Dataloader model for the 'IO' and 'real' curves.
    """

    def __init__(
        self,
        model: ViTConfig | MAEConfig,
        machine: Machine,
        strategy: ShardingStrategy,
        shard_size: int | None = None,
        params: PerfParams | None = None,
        io: IoModel | None = None,
    ):
        self.model = model
        self.machine = machine
        self.strategy = strategy
        self.shard_size = shard_size
        self.params = params if params is not None else PerfParams()
        self.io = io if io is not None else IoModel()
        self.world = machine.world()
        if isinstance(model, MAEConfig):
            self.units = mae_workload_units(
                model, self.params.local_batch, machine.gpu
            )
        else:
            self.units = vit_workload_units(
                model, self.params.local_batch, machine.gpu
            )
        self.mesh = self.params.mesh
        if self.mesh is not None:
            if self.mesh.size != self.world.size:
                raise ValueError(
                    f"mesh {self.mesh.describe()} needs {self.mesh.size} ranks "
                    f"but the machine slice has {self.world.size}"
                )
            if self.mesh.pp > len(self.units):
                raise ValueError(
                    f"pp={self.mesh.pp} exceeds the {len(self.units)} "
                    "workload units available to partition"
                )
        mult = self._realloc_multiplier()
        if mult > 1.0:
            self.units = [
                replace(u, fwd_seconds=u.fwd_seconds * mult) for u in self.units
            ]

    def _realloc_multiplier(self) -> float:
        """Compute-time inflation from allocator churn under HBM pressure."""
        # Churn comes from freeing and regathering parameters each step.
        row = STRATEGY_TABLE[self.strategy]
        if not (
            row.regather_in_backward
            and row.materializes(self._shard_size(self.world.size))
        ):
            return 1.0
        pressure = self.memory().total / self.machine.gpu.hbm_bytes
        thresh = self.params.realloc_pressure_threshold
        if pressure <= thresh:
            return 1.0
        x = min(1.0, (pressure - thresh) / (1.0 - thresh))
        return 1.0 + self.params.realloc_penalty * x * x

    # -- pieces --------------------------------------------------------------

    def total_param_bytes(self) -> int:
        """Parameter bytes across all workload units."""
        return sum(u.param_bytes for u in self.units)

    def _local_state_params(self) -> float:
        """Parameters whose optimizer state this rank owns."""
        if self.mesh is not None:
            # This rank holds one stage's tp shard; dp sharding divides
            # further below.
            stage_units, _, _ = self._mesh_stage()
            total = sum(u.param_bytes for u in stage_units) / BYTES_PER_PARAM
            dp_size = self.mesh.dp
        else:
            total = self.total_param_bytes() / BYTES_PER_PARAM
            dp_size = self.world.size
        return total / self._shard_size(dp_size)

    def _shard_size(self, dp_size: int) -> int:
        """The strategy row's shard size over ``dp_size`` ranks."""
        return resolve_shard_size(self.strategy, self.shard_size, dp_size)

    def optimizer_seconds(self) -> float:
        """HBM-bound AdamW step time on this rank's parameter shard."""
        return (
            self._local_state_params()
            * _ADAMW_BYTES_PER_PARAM
            / self.machine.gpu.hbm_bw
        )

    def _mesh_stage(self):
        """(scaled units, profiles, boundary bytes) of the heaviest stage.

        Stage selection partitions the workload units exactly as the
        engine partitions pipeline ops (earlier stages take the
        remainder) and times the busiest one — the pipeline clocks at
        the slowest stage. Tensor parallelism divides each block unit's
        GEMM compute and its tp-shardable parameter bytes ``tp`` ways;
        the root unit (embeddings/norms/heads) is replicated.
        """
        cached = getattr(self, "_mesh_stage_cache", None)
        if cached is not None:
            return cached
        mesh = self.mesh
        bounds = partition_stages(len(self.units), mesh.pp)
        sums = [sum(u.fwd_seconds for u in self.units[a:b]) for a, b in bounds]
        idx = max(range(len(bounds)), key=lambda s: sums[s])
        a, b = bounds[idx]
        profiles = unit_mesh_profiles(self.model, self.params.local_batch)
        stage_units, stage_profiles = [], []
        for u, prof in zip(self.units[a:b], profiles[a:b]):
            if mesh.tp > 1 and prof.tp_fwd_payloads:
                f = prof.tp_param_fraction
                u = replace(
                    u,
                    fwd_seconds=u.fwd_seconds / mesh.tp,
                    param_bytes=int(
                        round(u.param_bytes * ((1.0 - f) + f / mesh.tp))
                    ),
                )
            stage_units.append(u)
            stage_profiles.append(prof)
        in_bytes = profiles[a - 1].out_bytes if idx > 0 else 0.0
        out_bytes = profiles[b - 1].out_bytes if idx < mesh.pp - 1 else 0.0
        self._mesh_stage_cache = (stage_units, stage_profiles, (in_bytes, out_bytes))
        return self._mesh_stage_cache

    def _build_mesh_schedule(self) -> StepSchedule:
        """One pipelined mesh step: dp graph + injected tp/pp comm + bubble."""
        mesh = self.mesh
        stage_units, stage_profiles, (in_bytes, out_bytes) = self._mesh_stage()
        cost = self.machine.cost_model
        wire = self.params.precision
        tp_units: tuple[TpUnitComm, ...] = ()
        if mesh.tp > 1:
            tp_pl = mesh_axis_placements(self.world, mesh)["tp"]
            tp_units = tuple(
                TpUnitComm(
                    fwd_seconds=sum(
                        cost.all_gather(pb, tp_pl, wire)
                        for pb in prof.tp_fwd_payloads
                    ),
                    bwd_seconds=sum(
                        cost.all_gather(pb, tp_pl, wire)
                        for pb in prof.tp_bwd_payloads
                    ),
                    fwd_calls=len(prof.tp_fwd_payloads),
                    bwd_calls=len(prof.tp_bwd_payloads),
                )
                for prof in stage_profiles
            )
        crosses = pp_boundary_crosses_nodes(self.world, mesh)
        plan = MeshCommPlan(
            tp_units=tp_units,
            pp_in_seconds=p2p_seconds(cost, in_bytes, crosses, wire),
            pp_out_seconds=p2p_seconds(cost, out_bytes, crosses, wire),
            reduce_per_step=True,
            dp_nic_share=(
                min(mesh.tp, self.world.ranks_per_node) if mesh.tp > 1 else 1
            ),
        )
        # The dp axis strides over tp blocks: its members pack
        # ranks_per_node // tp to a node.
        dp_world = World(
            size=mesh.dp,
            ranks_per_node=max(1, self.world.ranks_per_node // mesh.tp),
        )
        sched = build_step_schedule(
            units=stage_units,
            strategy=self.strategy,
            world=dp_world,
            cost_model=cost,
            shard_size=self.shard_size,
            params=self.params.resolved_schedule(0.0),
            mesh=plan,
        )
        return compose_pipeline(
            sched,
            n_micro=self.params.resolved_micros(),
            pp=mesh.pp,
            optimizer_seconds=self.optimizer_seconds(),
        )

    def build_schedule(self) -> StepSchedule:
        """Build this configuration's one-step task graph."""
        if self.mesh is not None:
            return self._build_mesh_schedule()
        return build_step_schedule(
            units=self.units,
            strategy=self.strategy,
            world=self.world,
            cost_model=self.machine.cost_model,
            shard_size=self.shard_size,
            params=self.params.resolved_schedule(self.optimizer_seconds()),
        )

    def memory(self) -> MemoryBreakdown:
        """Per-GPU memory breakdown of this configuration."""
        return memory_breakdown(
            self.model,
            self.strategy,
            world_size=self.world.size,
            shard_size=self.shard_size,
            local_batch=self.params.local_batch,
            precision=self.params.precision,
            grad_accum_steps=self.params.grad_accum_steps,
            mesh=self.mesh,
            pipeline_micros=(
                self.params.resolved_micros() if self.mesh is not None else 1
            ),
        )

    # -- the answer ------------------------------------------------------------

    def simulate(self) -> StepBreakdown:
        """Time one training step; returns the full breakdown."""
        sched = self.build_schedule()
        syn = sched.step_time + _HOST_OVERHEAD_S
        no_comm = sched.step_time_no_comm + _HOST_OVERHEAD_S
        if self.mesh is not None:
            # Only dp-replica ranks consume data; a step drains
            # resolved_micros() microbatches per replica.
            micros = self.params.resolved_micros()
            images = self.mesh.dp * micros * self.params.local_batch
            io_t = self.io.step_time(
                micros * self.params.local_batch, max(1, self.mesh.dp)
            )
            bubble = pipeline_bubble_fraction(micros, self.mesh.pp)
        else:
            images = 0  # historical world * local_batch convention
            io_t = self.io.step_time(self.params.local_batch, self.world.size)
            bubble = 0.0
        real = max(syn, io_t) * (1.0 + _DATALOADER_OVERHEAD)
        return StepBreakdown(
            step_time_s=syn,
            step_time_no_comm_s=no_comm,
            io_step_time_s=io_t,
            real_step_time_s=real,
            comm_seconds=sched.step_comm_seconds,
            exposed_comm_seconds=sched.exposed_comm_seconds,
            comm_calls=sched.step_comm_calls,
            compute_seconds=sched.step_compute_seconds,
            world_size=self.world.size,
            local_batch=self.params.local_batch,
            memory=self.memory(),
            images_per_step=images,
            bubble_fraction=bubble,
            axis_comm_seconds=sched.step_axis_comm_seconds(),
        )

    def power_trace(
        self, n_steps: int = 50, label: str | None = None, power: PowerModel | None = None
    ) -> PowerTrace:
        """rocm-smi-style trace of this configuration (paper Fig. 4 panel)."""
        bd = self.simulate()
        pm = power if power is not None else PowerModel()
        return pm.trace(
            step_time_s=bd.step_time_s,
            compute_occupancy=bd.compute_occupancy,
            comm_occupancy=bd.comm_occupancy,
            memory_bytes=bd.memory.total,
            n_steps=n_steps,
            label=label or f"{self.strategy.value}",
        )
