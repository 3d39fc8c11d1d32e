"""Builds the per-step task graph for one strategy + prefetch policy.

One training step is simulated from the perspective of a representative
rank (the workload is SPMD-homogeneous): a ``compute`` stream runs the
forward/backward of each FSDP unit, and a ``comm`` stream runs the
collectives the strategy prescribes:

==============  ==========================================================
strategy        collectives per unit per step
==============  ==========================================================
NO_SHARD        all-reduce(grad) in backward
DDP             all-reduce per *bucket* (25 MB default) in backward
FULL_SHARD      all-gather(params) in forward, all-gather(params) again in
                backward, reduce-scatter(grad)
SHARD_GRAD_OP   all-gather(params) in forward only, reduce-scatter(grad)
HYBRID(s)       all-gather / reduce-scatter inside the shard group (fwd +
                bwd regather like FULL_SHARD when s > 1), then an
                all-reduce of the grad shard across replica groups
==============  ==========================================================

Overlap realism: on the MI250X, RCCL kernels contend with the matrix
pipeline for HBM bandwidth and CUs, so communication is only partially
hideable. Each collective is therefore split into an overlappable part
(on the ``comm`` stream) and a serialized part of
``comm_compute_contention x duration`` on the ``compute`` stream; the
collective's consumers depend on the serialized part. The paper's Fig. 1
measurement — communication ~22% of the step at 64 nodes, i.e. almost
fully exposed — is what calibrates the contention factor high.

Backward prefetch (paper Fig. 2) controls when the *next* unit's
parameter all-gather is issued relative to the current unit's
reduce-scatter: ``BACKWARD_PRE`` enqueues it before the reduce-scatter as
soon as the previous gather completed (most overlap), ``BACKWARD_POST``
after the reduce-scatter enqueue, ``NONE`` only after the reduce-scatter
finished. ``limit_all_gathers`` rate-limits in-flight gathers; running
without it trades rate-limit delays for allocator stalls on the compute
stream plus congestion on the oversubscribed gathers.

Mesh composition: with a :class:`MeshCommPlan` the same per-microbatch
graph additionally carries the tensor-parallel reassembly gathers (one
comm task per unit per direction, serialized with the unit's compute —
the engine's gathers are blocking) and the pipeline boundary transfers
(activation recv before the first forward, send after the last; the
mirrored gradient pair around backward). The gradient reduction then
moves out of the microbatch graph into a per-step *tail*
(``reduce_per_step``): with accumulation the engines reduce once per
optimizer step, not per round. :func:`compose_pipeline` scales the
per-microbatch makespan by ``n_micro + pp - 1`` rounds — the gpipe/1f1b
fill-drain bubble; both schedules share it, they differ only in
activation liveness, which the memory model prices — and appends the
tail (reduction + optimizer) once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.comm.bucketing import DEFAULT_BUCKET_CAP_BYTES, bucket_gradients
from repro.comm.cost_model import CollectiveCostModel, GroupPlacement
from repro.comm.world import World
from repro.core.sharding import (
    STRATEGY_TABLE,
    BackwardPrefetch,
    ShardingStrategy,
    resolve_shard_size,
)
from repro.perf.compute_model import UnitCost
from repro.perf.events import Timeline

__all__ = [
    "ScheduleParams",
    "StepSchedule",
    "TpUnitComm",
    "MeshCommPlan",
    "build_step_schedule",
    "compose_pipeline",
    "pipeline_bubble_fraction",
    "shard_group_placement",
    "replica_group_placement",
]

#: Granularity used to emulate per-tensor gradient readiness inside DDP
#: buckets (real tensors are finer than whole transformer blocks).
_DDP_PSEUDO_TENSOR_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class ScheduleParams:
    """Calibration knobs of the step schedule (rationale in DESIGN.md)."""

    prefetch: BackwardPrefetch = BackwardPrefetch.BACKWARD_PRE
    limit_all_gathers: bool = True
    #: Fraction of each collective's duration serialized onto compute
    #: (HBM/CU contention); calibrated against Fig. 1's exposed ~22%.
    comm_compute_contention: float = 0.90
    #: Host allocator stall per unrestricted in-flight gather.
    alloc_stall_s: float = 4.0e-4
    #: Gather-duration inflation when limit_all_gathers is off.
    congestion_factor: float = 0.18
    #: Duration inflation of NO_SHARD's all-reduces relative to the
    #: HYBRID_1GPU path (the paper finds HYBRID_1GPU consistently faster
    #: than the algorithmically-identical NO_SHARD; we attribute the
    #: measured gap to NO_SHARD's legacy flat-parameter reduce path).
    noshard_comm_inflation: float = 1.10
    #: Same-spirit inflation for DDP's hook-driven bucket all-reduce path.
    ddp_comm_inflation: float = 1.18
    #: In-flight gather window when limit_all_gathers is on.
    gather_window: int = 2
    ddp_bucket_cap_bytes: int = DEFAULT_BUCKET_CAP_BYTES
    #: HBM bandwidth used for DDP's bucket coalesce/scatter copies
    #: (grads are copied into and out of each bucket's flat buffer).
    ddp_copy_bw: float = 1.6e12
    #: Seconds of optimizer compute appended at the end of the step
    #: (set by the simulator from the sharded state size).
    optimizer_seconds: float = 0.0
    #: On-wire dtype of parameter gathers and gradient reductions
    #: ("fp32" or "bf16"; bf16 halves every collective payload while the
    #: latency/launch terms stay put — small collectives stay
    #: launch-bound, matching why bf16 helps bandwidth-bound strategies
    #: most).
    wire_dtype: str = "fp32"


@dataclass(frozen=True)
class TpUnitComm:
    """Tensor-parallel reassembly cost of one unit, one microbatch."""

    fwd_seconds: float = 0.0
    bwd_seconds: float = 0.0
    fwd_calls: int = 0
    bwd_calls: int = 0


@dataclass(frozen=True)
class MeshCommPlan:
    """Per-microbatch tp/pp communication injected into the dp graph.

    ``tp_units`` aligns with the builder's ``units`` (empty disables tp
    injection). ``pp_in_seconds``/``pp_in_bytes`` describe the boundary
    activation arriving from the previous stage, ``pp_out_*`` the one
    leaving toward the next; the same payloads cross back as gradients
    in backward. ``reduce_per_step`` moves the gradient reduction out of
    the microbatch graph into the step tail (gradient accumulation
    reduces once per optimizer step). ``dp_nic_share`` inflates the
    dp collectives' NIC contention by the concurrent sibling rings of
    the inner tp axis.
    """

    tp_units: tuple[TpUnitComm, ...] = ()
    pp_in_seconds: float = 0.0
    pp_out_seconds: float = 0.0
    reduce_per_step: bool = False
    dp_nic_share: int = 1


@dataclass
class StepSchedule:
    """Built task graph plus aggregate accounting.

    The timeline and the ``comm_/compute_/stall_seconds`` aggregates
    describe *one microbatch round*; ``rounds``, ``bubble_rounds`` and
    the tail fields (set by :func:`compose_pipeline`) lift them to a
    full optimizer step. The defaults (one round, no bubble, no tail)
    keep the historical single-round semantics unchanged.
    """

    timeline: Timeline
    comm_seconds: float = 0.0
    comm_calls: int = 0
    compute_seconds: float = 0.0  # pure compute incl. optimizer, no stalls
    stall_seconds: float = 0.0
    notes: dict = field(default_factory=dict)
    #: Microbatch rounds per optimizer step (pipeline: micros in flight).
    rounds: int = 1
    #: Extra fill/drain rounds of the pipeline bubble (``pp - 1``).
    bubble_rounds: int = 0
    #: Per-step compute tail (optimizer) appended after the last round.
    tail_seconds: float = 0.0
    #: Per-step communication tail (deferred gradient reduction).
    tail_comm_seconds: float = 0.0
    tail_comm_calls: int = 0
    #: Per-round comm seconds by mesh axis ("tp"/"pp"/"dp").
    axis_comm_seconds: dict = field(default_factory=dict)

    @property
    def pipeline_rounds(self) -> int:
        """Wall-clock rounds of one step, bubble included."""
        return self.rounds + self.bubble_rounds

    @property
    def step_time(self) -> float:
        """Makespan of one step (the paper's 'syn' time)."""
        return (
            self.timeline.makespan() * self.pipeline_rounds
            + self.tail_comm_seconds
            + self.tail_seconds
        )

    @property
    def step_time_no_comm(self) -> float:
        """The paper's 'syn no comm' configuration: compute only.

        A wall time: the pipeline bubble persists without communication
        (stages still wait on upstream compute), so the per-round
        compute scales by the bubble-inclusive round count.
        """
        return self.compute_seconds * self.pipeline_rounds + self.tail_seconds

    @property
    def exposed_comm_seconds(self) -> float:
        """Step time beyond pure compute (exposed communication)."""
        return max(0.0, self.step_time - self.step_time_no_comm)

    @property
    def step_comm_seconds(self) -> float:
        """Comm seconds of a full step (live rounds plus the tail)."""
        return self.comm_seconds * self.rounds + self.tail_comm_seconds

    @property
    def step_comm_calls(self) -> int:
        """Collective calls of a full step."""
        return self.comm_calls * self.rounds + self.tail_comm_calls

    @property
    def step_compute_seconds(self) -> float:
        """Busy compute seconds of a full step (no bubble idle time)."""
        return self.compute_seconds * self.rounds + self.tail_seconds

    def step_axis_comm_seconds(self) -> dict:
        """Per-step comm seconds by mesh axis (tail counts toward dp)."""
        out = {
            axis: s * self.rounds for axis, s in self.axis_comm_seconds.items()
        }
        if self.tail_comm_seconds:
            out["dp"] = out.get("dp", 0.0) + self.tail_comm_seconds
        return out


def pipeline_bubble_fraction(n_micro: int, pp: int) -> float:
    """Idle share of the gpipe/1f1b pipeline: ``(pp-1) / (m + pp - 1)``."""
    if n_micro < 1:
        raise ValueError(f"n_micro must be >= 1, got {n_micro}")
    if pp < 1:
        raise ValueError(f"pp must be >= 1, got {pp}")
    return (pp - 1) / (n_micro + pp - 1)


def compose_pipeline(
    sched: StepSchedule,
    n_micro: int,
    pp: int,
    optimizer_seconds: float = 0.0,
) -> StepSchedule:
    """Lift a per-microbatch schedule to a pipelined optimizer step.

    Scales the round count to ``n_micro`` live rounds plus the ``pp - 1``
    fill/drain bubble rounds and appends the optimizer tail. The bubble
    round count is schedule-independent (gpipe and 1f1b differ in
    activation liveness, not bubble area — the memory model prices
    that); validation is delegated to :func:`pipeline_bubble_fraction`.
    """
    pipeline_bubble_fraction(n_micro, pp)  # validates arguments
    return replace(
        sched,
        rounds=n_micro,
        bubble_rounds=pp - 1,
        tail_seconds=sched.tail_seconds + optimizer_seconds,
    )


def shard_group_placement(world: World, shard_size: int) -> GroupPlacement:
    """Placement of one contiguous shard group."""
    nodes = -(-shard_size // world.ranks_per_node)
    return GroupPlacement(group_size=shard_size, nodes_spanned=nodes, nic_share=1)


def replica_group_placement(world: World, shard_size: int) -> GroupPlacement:
    """Placement of one replica (gradient all-reduce) group.

    There are ``shard_size`` such groups running concurrently, so when
    they span nodes each NIC is shared by ``min(shard_size,
    ranks_per_node)`` rings.
    """
    members = world.size // shard_size
    if members == 1:
        return GroupPlacement(group_size=1, nodes_spanned=1)
    if shard_size >= world.ranks_per_node:
        nodes = members  # one member per shard group, each on its own node(s)
    else:
        nodes = world.n_nodes
    nodes = max(1, min(nodes, members))
    nic_share = min(shard_size, world.ranks_per_node) if nodes > 1 else 1
    return GroupPlacement(group_size=members, nodes_spanned=nodes, nic_share=nic_share)


def world_placement(world: World) -> GroupPlacement:
    """Placement of a collective spanning the whole world."""
    return GroupPlacement(
        group_size=world.size, nodes_spanned=world.n_nodes, nic_share=1
    )


class _StepBuilder:
    def __init__(
        self,
        world: World,
        cost_model: CollectiveCostModel,
        params: ScheduleParams,
    ):
        self.tl = Timeline()
        self.world = world
        self.cost = cost_model
        self.p = params
        self.comm_seconds = 0.0
        self.comm_calls = 0
        self.compute_seconds = 0.0
        self.stall_seconds = 0.0
        self.tail_comm_seconds = 0.0
        self.tail_comm_calls = 0
        self.axis_seconds: dict[str, float] = {}

    def add_compute(self, name: str, duration: float, deps=()) -> int:
        self.compute_seconds += duration
        return self.tl.add(name, "compute", duration, deps)

    def add_stall(self, name: str, duration: float) -> int:
        self.stall_seconds += duration
        return self.tl.add(name, "compute", duration)

    def add_comm(
        self, name: str, duration: float, deps=(), axis: str = "dp", calls: int = 1
    ) -> int:
        """Add a collective; returns the id its consumers must depend on.

        The collective occupies the comm stream for its full duration
        (consumers wait on that). Its HBM/CU contention is modeled as an
        additional dependency-free task of ``kappa x duration`` on the
        compute stream at the issue point: concurrent compute slows down
        by the contention share, but is never head-of-line blocked behind
        the wire transfer itself. ``calls`` lets one task stand for a
        burst of collectives (tp issues one gather per sharded GEMM).
        """
        self.comm_seconds += duration
        self.comm_calls += calls
        self.axis_seconds[axis] = self.axis_seconds.get(axis, 0.0) + duration
        wire = self.tl.add(name, "comm", duration, deps)
        kappa = self.p.comm_compute_contention
        if kappa > 0.0:
            self.tl.add(f"{name}#x", "compute", duration * kappa)
        return wire

    def add_tail_comm(self, duration: float, calls: int = 1) -> None:
        """Book a per-step collective into the tail (no per-round task).

        Used for the deferred gradient reduction under accumulation: it
        runs once after the last microbatch round, fully exposed (the
        backward it could overlap with is already done).
        """
        self.tail_comm_seconds += duration
        self.tail_comm_calls += calls


def build_step_schedule(
    units: list[UnitCost],
    strategy: ShardingStrategy,
    world: World,
    cost_model: CollectiveCostModel,
    shard_size: int | None = None,
    params: ScheduleParams | None = None,
    mesh: MeshCommPlan | None = None,
) -> StepSchedule:
    """Assemble the task graph of one training step.

    ``units`` come from :mod:`repro.perf.compute_model`; ``shard_size`` is
    required for ``HYBRID_SHARD`` and implied otherwise. Shard size,
    gathers, backward regathers and the reduce sequence are read from
    the strategy's row of :data:`~repro.core.sharding.STRATEGY_TABLE` —
    the row the executable engine runs. With a
    ``mesh`` plan the graph describes one *microbatch round* of one
    pipeline stage (``units`` are that stage's slice; ``world`` is the
    dp axis), carrying the injected tp/pp communication; compose it into
    a full step with :func:`compose_pipeline`.
    """
    p = params if params is not None else ScheduleParams()
    if mesh is not None and mesh.tp_units and len(mesh.tp_units) != len(units):
        raise ValueError(
            f"mesh plan has {len(mesh.tp_units)} tp unit entries for "
            f"{len(units)} units"
        )
    row = STRATEGY_TABLE[strategy]
    s = resolve_shard_size(strategy, shard_size, world.size)

    b = _StepBuilder(world, cost_model, p)
    sharded = s > 1
    regather_in_backward = row.gathers(s, backward=True)
    shard_pl = shard_group_placement(world, s) if sharded else None
    replica_pl = replica_group_placement(world, s) if len(row.reduce) == 2 else None
    world_pl = world_placement(world)
    if mesh is not None and mesh.dp_nic_share > 1:
        # Sibling dp rings (one per inner-axis index) share every NIC.
        def _contended(pl: GroupPlacement | None) -> GroupPlacement | None:
            if pl is None or not pl.crosses_nodes:
                return pl
            return replace(pl, nic_share=max(pl.nic_share, mesh.dp_nic_share))

        shard_pl = _contended(shard_pl)
        replica_pl = _contended(replica_pl)
        world_pl = _contended(world_pl)
    gather_infl = 1.0 if p.limit_all_gathers else 1.0 + p.congestion_factor
    tp_units = mesh.tp_units if mesh is not None else ()
    reduce_per_step = mesh is not None and mesh.reduce_per_step

    def tp_after(i: int, kind: str, cid: int) -> int:
        """Serialize unit ``i``'s tp reassembly gathers behind its compute."""
        if not tp_units:
            return cid
        tc = tp_units[i]
        dur = tc.fwd_seconds if kind == "f" else tc.bwd_seconds
        calls = tc.fwd_calls if kind == "f" else tc.bwd_calls
        if dur <= 0.0 and calls == 0:
            return cid
        return b.add_comm(
            f"TP{kind}:{units[i].name}", dur, (cid,), axis="tp", calls=max(1, calls)
        )

    def t_ag(u: UnitCost) -> float:
        return (
            cost_model.all_gather(u.param_bytes, shard_pl, p.wire_dtype)
            * gather_infl
        )

    # ---- forward ---------------------------------------------------------
    fwd_ids: list[int] = []
    pp_in_id: int | None = None
    if mesh is not None and mesh.pp_in_seconds > 0.0:
        # Boundary activation from the previous stage gates the first unit.
        pp_in_id = b.add_comm("PPrecv:f", mesh.pp_in_seconds, (), axis="pp")
    for i, u in enumerate(units):
        deps: list[int] = []
        if i == 0 and pp_in_id is not None:
            deps.append(pp_in_id)
        if sharded:
            ag_deps: list[int] = []
            if p.limit_all_gathers and i >= p.gather_window:
                ag_deps.append(fwd_ids[i - p.gather_window])
            agid = b.add_comm(f"AGf:{u.name}", t_ag(u), tuple(ag_deps))
            if not p.limit_all_gathers:
                b.add_stall(f"stall_f:{u.name}", p.alloc_stall_s)
            deps.append(agid)
        cid = b.add_compute(f"F:{u.name}", u.fwd_seconds, tuple(deps))
        fwd_ids.append(tp_after(i, "f", cid))
    if mesh is not None and mesh.pp_out_seconds > 0.0:
        b.add_comm("PPsend:f", mesh.pp_out_seconds, (fwd_ids[-1],), axis="pp")

    # ---- backward --------------------------------------------------------
    n = len(units)
    agb_ids: dict[int, int] = {}
    if regather_in_backward:
        u_last = units[n - 1]
        agb_ids[n - 1] = b.add_comm(
            f"AGb:{u_last.name}", t_ag(u_last), (fwd_ids[-1],)
        )
        if not p.limit_all_gathers:
            b.add_stall(f"stall_b:{u_last.name}", p.alloc_stall_s)
    grad_final_ids: list[int] = []
    bwd_ids: dict[int, int] = {}
    pp_grad_id: int | None = None
    if mesh is not None and mesh.pp_out_seconds > 0.0:
        # The gradient w.r.t. our boundary output arrives from the next
        # stage before the deepest unit can run its backward.
        pp_grad_id = b.add_comm(
            "PPrecv:b", mesh.pp_out_seconds, (fwd_ids[-1],), axis="pp"
        )

    if strategy is ShardingStrategy.DDP:
        # Backward computes first (ids known), buckets attach to readiness.
        for i in range(n - 1, -1, -1):
            u = units[i]
            deps = (pp_grad_id,) if i == n - 1 and pp_grad_id is not None else ()
            bwd_ids[i] = tp_after(
                i, "b", b.add_compute(f"B:{u.name}", u.bwd_seconds, deps)
            )
        pseudo: list[tuple[int, int]] = []  # (unit index, nbytes), fwd order
        for idx, u in enumerate(units):
            remaining = u.param_bytes
            while remaining > 0:
                take = min(remaining, _DDP_PSEUDO_TENSOR_BYTES)
                pseudo.append((idx, take))
                remaining -= take
        buckets = bucket_gradients(
            [nb for _, nb in pseudo], cap_bytes=p.ddp_bucket_cap_bytes
        )
        for k, bucket in enumerate(buckets):
            ready_unit = min(pseudo[j][0] for j in bucket.param_indices)
            dur = (
                cost_model.all_reduce(bucket.nbytes, world_pl, p.wire_dtype)
                * p.ddp_comm_inflation
            )
            # Coalesce grads into the bucket's flat buffer and back out.
            b.add_stall(f"copy_bucket{k}", 2 * bucket.nbytes / p.ddp_copy_bw)
            if reduce_per_step:
                b.add_tail_comm(dur)
                grad_final_ids.append(bwd_ids[ready_unit])
            else:
                grad_final_ids.append(
                    b.add_comm(f"ARbucket{k}", dur, (bwd_ids[ready_unit],))
                )
    else:
        prev_bid: int | None = None
        for i in range(n - 1, -1, -1):
            u = units[i]
            deps = [agb_ids[i]] if regather_in_backward else []
            if i == n - 1 and pp_grad_id is not None:
                deps.append(pp_grad_id)
            bid = tp_after(
                i, "b", b.add_compute(f"B:{u.name}", u.bwd_seconds, tuple(deps))
            )
            bwd_ids[i] = bid

            def issue_next_gather(dep_ids: tuple[int, ...]) -> None:
                nxt = units[i - 1]
                agb_ids[i - 1] = b.add_comm(f"AGb:{nxt.name}", t_ag(nxt), dep_ids)
                if not p.limit_all_gathers:
                    b.add_stall(f"stall_b:{nxt.name}", p.alloc_stall_s)

            want_prefetch = regather_in_backward and i > 0
            if want_prefetch and p.prefetch is BackwardPrefetch.BACKWARD_PRE:
                # Issued before the reduce-scatter; unblocked by the
                # previous gather (rate-limited to the backward pace when
                # limit_all_gathers is on).
                dep = (
                    (prev_bid,)
                    if (p.limit_all_gathers and prev_bid is not None)
                    else (agb_ids[i],)
                )
                issue_next_gather(dep)

            if sharded:
                d_rs = cost_model.reduce_scatter(u.param_bytes, shard_pl, p.wire_dtype)
                d_rep = 0.0
                if replica_pl is not None and replica_pl.group_size > 1:
                    d_rep = cost_model.all_reduce(
                        u.param_bytes / s, replica_pl, p.wire_dtype
                    )
                if reduce_per_step:
                    b.add_tail_comm(d_rs)
                    if d_rep:
                        b.add_tail_comm(d_rep)
                    rsid = bid
                    grad_final_ids.append(bid)
                else:
                    rsid = b.add_comm(f"RS:{u.name}", d_rs, (bid,))
                    last = rsid
                    if d_rep:
                        last = b.add_comm(f"ARrep:{u.name}", d_rep, (rsid,))
                    grad_final_ids.append(last)
            else:
                # NO_SHARD or HYBRID_1GPU: full-gradient all-reduce.
                d_ar = cost_model.all_reduce(u.param_bytes, world_pl, p.wire_dtype)
                if strategy is ShardingStrategy.NO_SHARD:
                    d_ar *= p.noshard_comm_inflation
                if reduce_per_step:
                    b.add_tail_comm(d_ar)
                    grad_final_ids.append(bid)
                    rsid = bid
                else:
                    grad_final_ids.append(b.add_comm(f"AR:{u.name}", d_ar, (bid,)))
                    rsid = grad_final_ids[-1]

            if want_prefetch and p.prefetch is not BackwardPrefetch.BACKWARD_PRE:
                if p.prefetch is BackwardPrefetch.BACKWARD_POST:
                    issue_next_gather((bid,))
                else:  # NONE: wait for the reduce-scatter to finish
                    issue_next_gather((rsid,))
            prev_bid = bid

    # ---- pipeline gradient send / optimizer --------------------------------
    if mesh is not None and mesh.pp_in_seconds > 0.0:
        # Gradient w.r.t. our boundary input leaves toward the previous
        # stage once the shallowest unit finished its backward.
        b.add_comm("PPsend:b", mesh.pp_in_seconds, (bwd_ids[0],), axis="pp")
    if p.optimizer_seconds > 0:
        b.add_compute("optimizer", p.optimizer_seconds, tuple(grad_final_ids))

    return StepSchedule(
        timeline=b.tl,
        comm_seconds=b.comm_seconds,
        comm_calls=b.comm_calls,
        compute_seconds=b.compute_seconds,
        stall_seconds=b.stall_seconds,
        notes={"strategy": strategy.value, "shard_size": s},
        tail_comm_seconds=b.tail_comm_seconds,
        tail_comm_calls=b.tail_comm_calls,
        axis_comm_seconds=b.axis_seconds,
    )
