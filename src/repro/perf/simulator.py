"""End-to-end training-step simulator (drives Figures 1-4).

Combines the compute model, collective cost model, schedule builder,
memory model, and dataloader rate into one object that answers: *for this
model, on this many Frontier nodes, under this sharding strategy, what
does one training step look like?*
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.comm.world import World
from repro.core.config import MAEConfig, ViTConfig
from repro.core.sharding import STRATEGY_TABLE, ShardingStrategy, resolve_shard_size
from repro.hardware.frontier import Machine
from repro.hardware.power import PowerModel, PowerTrace
from repro.mesh.pipeline import partition_stages
from repro.perf.compute_model import BYTES_PER_PARAM, workload_units
from repro.perf.memory_model import MemoryBreakdown, memory_breakdown
from repro.perf.mesh_model import (
    mesh_axis_placements,
    p2p_seconds,
    pp_boundary_crosses_nodes,
    tp_gather_values,
)
from repro.perf.schedule import (
    Burst,
    MeshCommPlan,
    PerfParams,
    StepSchedule,
    build_step_schedule,
    compose_pipeline,
    pipeline_bubble_fraction,
)

__all__ = ["StepBreakdown", "TrainStepSimulator"]

#: Bytes touched per parameter by a single-pass AdamW step (read p/g/m/v, write
#: p/m/v at fp32).
_ADAMW_BYTES_PER_PARAM = 28
#: Throughput tax of the real data pipeline vs cached synthetic inputs.
_DATALOADER_OVERHEAD = 0.04
#: Per-rank dataloader images/second (paper Fig. 1 'IO'): 4 worker
#: processes per rank, each decoding ~30 img/s (512x512 JPEG on one EPYC
#: core). IO scales linearly with the ranks: Orion's multi-TB/s aggregate
#: would cap 0.35 MB images only above ~238 000 ranks, more GCDs than
#: Frontier has. The paper finds the application never IO-bound; this
#: rate reproduces that by construction (Fig. 1's claim says so).
_IO_IMAGES_PER_S = 4 * 30.0
#: Allocator churn under HBM pressure, a measured Frontier pathology the
#: paper's Fig. 4 observations hinge on: strategies that re-materialize
#: parameters every step (FULL_SHARD and HYBRID with shard groups > 1)
#: continuously allocate and free large buffers; when resident memory is
#: a large fraction of HBM, the caching allocator falls back to slow
#: synchronous frees and the whole step slows down. Statically-allocated
#: strategies (NO_SHARD, DDP, HYBRID_1GPU, and SHARD_GRAD_OP's resident
#: parameters) are immune, which is why the paper can run a 60 GB-resident
#: ViT-3B fastest with HYBRID_1GPU (Fig. 3) while the ViT-5B's
#: HYBRID_2GPUs (memory-tight) loses to HYBRID_8GPUs (memory-light) at
#: scale (Fig. 4). The slowdown starts at this HBM-occupancy fraction ...
_REALLOC_PRESSURE_THRESHOLD = 0.55
#: ... and ramps quadratically to this compute-time inflation at 100%.
_REALLOC_PENALTY = 6.0


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
    local_batch: int
    memory: MemoryBreakdown
    #: Images consumed per optimizer step: every rank's ``local_batch``
    #: without a mesh; under one only the dp replicas consume data,
    #: times the microbatch rounds in flight.
    images_per_step: int
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
        return self.images_per_step / t

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
    """

    def __init__(
        self,
        model: ViTConfig | MAEConfig,
        machine: Machine,
        strategy: ShardingStrategy,
        shard_size: int | None = None,
        params: PerfParams | None = None,
    ):
        self.model = model
        self.machine = machine
        self.strategy = strategy
        self.shard_size = shard_size
        self.params = params if params is not None else PerfParams()
        self.world = machine.world()
        self.units = workload_units(model, self.params.local_batch, machine.gpu)
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
        if pressure <= _REALLOC_PRESSURE_THRESHOLD:
            return 1.0
        x = min(
            1.0,
            (pressure - _REALLOC_PRESSURE_THRESHOLD)
            / (1.0 - _REALLOC_PRESSURE_THRESHOLD),
        )
        return 1.0 + _REALLOC_PENALTY * x * x

    # -- pieces --------------------------------------------------------------

    def total_param_bytes(self) -> int:
        """Parameter bytes across all workload units."""
        return sum(u.param_bytes for u in self.units)

    def _local_state_params(self) -> float:
        """Parameters whose optimizer state this rank owns."""
        if self.mesh is not None:
            # This rank holds one stage's tp shard; dp sharding divides
            # further below.
            stage_units, _ = self._mesh_stage()
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
        """(scaled units, boundary bytes) of the heaviest stage.

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
        stage_units = []
        for u in self.units[a:b]:
            if mesh.tp > 1 and u.row.gemm_params:
                f = u.row.gemm_params / u.row.params
                u = replace(
                    u,
                    fwd_seconds=u.fwd_seconds / mesh.tp,
                    flops=u.flops / mesh.tp,
                    param_bytes=int(
                        round(u.param_bytes * ((1.0 - f) + f / mesh.tp))
                    ),
                )
            stage_units.append(u)

        def emitted(i: int) -> float:
            """fp32 bytes of the activation unit ``i`` emits."""
            values = self.units[i].row.activation_values(self.params.local_batch)
            return float(values * BYTES_PER_PARAM)

        in_bytes = emitted(a - 1) if idx > 0 else 0.0
        out_bytes = emitted(b - 1) if idx < mesh.pp - 1 else 0.0
        self._mesh_stage_cache = (stage_units, (in_bytes, out_bytes))
        return self._mesh_stage_cache

    def _build_mesh_schedule(self) -> StepSchedule:
        """One pipelined mesh step: dp graph + injected tp/pp comm + bubble."""
        mesh = self.mesh
        stage_units, (in_bytes, out_bytes) = self._mesh_stage()
        cost = self.machine.cost_model
        tp_units: tuple[tuple[Burst, Burst], ...] = ()
        if mesh.tp > 1:
            tp_pl = mesh_axis_placements(self.world, mesh)["tp"]

            def gathers(values: tuple[int, ...]) -> Burst:
                """One fp32 tp gather per reassembled output."""
                return Burst(
                    sum(
                        cost.all_gather(float(v * BYTES_PER_PARAM), tp_pl)
                        for v in values
                    ),
                    len(values),
                    float(sum(values) * BYTES_PER_PARAM),
                )

            lb = self.params.local_batch
            tp_units = tuple(
                (gathers(fwd), gathers(bwd))
                for fwd, bwd in (tp_gather_values(u.row, lb) for u in stage_units)
            )
        crosses = pp_boundary_crosses_nodes(self.world, mesh)

        def send(nbytes: float) -> Burst:
            return Burst(p2p_seconds(cost, nbytes, crosses), 1, nbytes)

        plan = MeshCommPlan(
            tp_units=tp_units,
            pp_in=send(in_bytes),
            pp_out=send(out_bytes),
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
            params=self.params,
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
            params=self.params,
            optimizer_seconds=self.optimizer_seconds(),
        )

    def memory(self) -> MemoryBreakdown:
        """Per-GPU memory breakdown of this configuration."""
        return memory_breakdown(
            self.model,
            self.strategy,
            world_size=self.world.size,
            shard_size=self.shard_size,
            local_batch=self.params.local_batch,
            mesh=self.mesh,
            pipeline_micros=(
                self.params.resolved_micros() if self.mesh is not None else 1
            ),
        )

    # -- the answer ------------------------------------------------------------

    def simulate(self) -> StepBreakdown:
        """Time one training step; returns the full breakdown."""
        sched = self.build_schedule()
        syn = sched.step_time
        if self.mesh is not None:
            # Only dp-replica ranks consume data; a step drains
            # resolved_micros() microbatches per replica.
            micros = self.params.resolved_micros()
            images = self.mesh.dp * micros * self.params.local_batch
            io_t = micros * self.params.local_batch / _IO_IMAGES_PER_S
            bubble = pipeline_bubble_fraction(micros, self.mesh.pp)
        else:
            images = self.world.size * self.params.local_batch
            io_t = self.params.local_batch / _IO_IMAGES_PER_S
            bubble = 0.0
        real = max(syn, io_t) * (1.0 + _DATALOADER_OVERHEAD)
        return StepBreakdown(
            step_time_s=syn,
            step_time_no_comm_s=sched.step_time_no_comm,
            io_step_time_s=io_t,
            real_step_time_s=real,
            comm_seconds=sched.step_comm_seconds,
            exposed_comm_seconds=sched.exposed_comm_seconds,
            comm_calls=sched.step_comm_calls,
            compute_seconds=sched.step_compute_seconds,
            local_batch=self.params.local_batch,
            memory=self.memory(),
            images_per_step=images,
            bubble_fraction=bubble,
            axis_comm_seconds=sched.step_axis_comm_seconds(),
        )

    def power_trace(self, n_steps: int = 50, label: str | None = None) -> PowerTrace:
        """rocm-smi-style trace of this configuration (paper Fig. 4 panel)."""
        bd = self.simulate()
        return PowerModel().trace(
            step_time_s=bd.step_time_s,
            compute_occupancy=bd.compute_occupancy,
            comm_occupancy=bd.comm_occupancy,
            memory_bytes=bd.memory.total,
            n_steps=n_steps,
            label=label or f"{self.strategy.value}",
        )
