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
stream.

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

from dataclasses import dataclass, replace

from repro.comm.bucketing import DEFAULT_BUCKET_CAP_BYTES, bucket_gradients
from repro.comm.cost_model import CollectiveCostModel, GroupPlacement
from repro.comm.world import World
from repro.core.sharding import (
    STRATEGY_TABLE,
    BackwardPrefetch,
    ShardingStrategy,
    resolve_shard_size,
)
from repro.mesh.spec import MeshSpec
from repro.perf.compute_model import BACKWARD_RATIO, UnitCost
from repro.perf.events import Task, Timeline
from repro.telemetry.bus import TelemetryBus

__all__ = [
    "PerfParams",
    "StepSchedule",
    "Burst",
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
#: Host allocator stall per unrestricted in-flight gather (what running
#: without limit_all_gathers costs).
_ALLOC_STALL_S = 4.0e-4
#: In-flight gather window when limit_all_gathers is on.
_GATHER_WINDOW = 2
#: Duration inflation of NO_SHARD's all-reduces relative to the
#: HYBRID_1GPU path (the paper finds HYBRID_1GPU consistently faster than
#: the algorithmically-identical NO_SHARD; we attribute the measured gap
#: to NO_SHARD's legacy flat-parameter reduce path).
_NOSHARD_COMM_INFLATION = 1.10
#: Same-spirit inflation for DDP's hook-driven bucket all-reduce path.
_DDP_COMM_INFLATION = 1.18


@dataclass(frozen=True)
class PerfParams:
    """Every setting a caller chooses for the simulated step.

    The fitted calibration values are module constants, not fields:
    the ones above, and those in ``perf/simulator.py`` and
    ``perf/memory_model.py`` (rationale in DESIGN.md §7).
    """

    local_batch: int = 32
    prefetch: BackwardPrefetch = BackwardPrefetch.BACKWARD_PRE
    limit_all_gathers: bool = True
    #: Mesh composition (tp x pp x dp). ``None`` keeps the historical
    #: dp-only model. When set, ``mesh.size`` must equal the machine's
    #: world size and the dp sharding ``strategy`` applies over the dp
    #: axis only.
    mesh: MeshSpec | None = None
    #: Microbatches in flight per pipelined step; ``0`` resolves to
    #: ``pp`` (enough micros to fill the pipe).
    pipeline_micros: int = 0
    #: Fraction of each collective's duration serialized onto compute
    #: (HBM/CU contention); calibrated against Fig. 1's exposed ~22%.
    comm_compute_contention: float = 0.90
    ddp_bucket_cap_bytes: int = DEFAULT_BUCKET_CAP_BYTES

    def resolved_micros(self) -> int:
        """Microbatch rounds of one optimizer step under the mesh."""
        pp = self.mesh.pp if self.mesh is not None else 1
        return self.pipeline_micros or pp


@dataclass(frozen=True)
class Burst:
    """``calls`` collectives of ``nbytes`` bytes in all, priced at
    ``seconds``."""

    seconds: float = 0.0
    calls: int = 0
    nbytes: float = 0.0


@dataclass(frozen=True)
class MeshCommPlan:
    """Per-microbatch tp/pp communication injected into the dp graph.

    ``tp_units`` aligns with the builder's ``units``: each unit's
    ``(forward, backward)`` tp reassembly gathers (empty disables tp
    injection). ``pp_in`` is the boundary activation arriving from the
    previous stage, ``pp_out`` the one leaving toward the next; the same
    payloads cross back as gradients in backward. ``reduce_per_step``
    moves the gradient reduction out of the microbatch graph into the
    step tail (gradient accumulation reduces once per optimizer step).
    ``dp_nic_share`` inflates the dp collectives' NIC contention by the
    concurrent sibling rings of the inner tp axis.
    """

    tp_units: tuple[tuple[Burst, Burst], ...] = ()
    pp_in: Burst = Burst()
    pp_out: Burst = Burst()
    reduce_per_step: bool = False
    dp_nic_share: int = 1


def _total(tasks, kinds: tuple[str, ...], attr: str = "duration"):
    """``attr`` summed over the ``tasks`` of ``kinds``, in task order."""
    total = 0
    for t in tasks:
        if t.kind in kinds:
            total += getattr(t, attr)
    return total


@dataclass
class StepSchedule:
    """A step's task records, and every tally read off them.

    ``timeline`` is *one microbatch round*, and the ``comm_`` /
    ``compute_`` / ``stall_`` tallies are per round; ``rounds``,
    ``bubble_rounds`` and ``tail`` (set by :func:`compose_pipeline` and
    deferred reductions) lift them to a full optimizer step. ``tail``
    runs once after the last round: deferred gradient reductions, then
    the optimizer. The defaults (one round, no bubble, no tail) are the
    single-round step.
    """

    timeline: Timeline
    #: Microbatch rounds per optimizer step (pipeline: micros in flight).
    rounds: int = 1
    #: Extra fill/drain rounds of the pipeline bubble (``pp - 1``).
    bubble_rounds: int = 0
    tail: tuple[Task, ...] = ()

    @property
    def comm_seconds(self) -> float:
        """Collective seconds of one round."""
        return _total(self.timeline.tasks, ("comm",))

    @property
    def comm_calls(self) -> int:
        """Collective calls of one round."""
        return _total(self.timeline.tasks, ("comm",), "calls")

    @property
    def compute_seconds(self) -> float:
        """Pure compute of one round, optimizer included, no stalls."""
        return _total(self.timeline.tasks, ("compute", "optim"))

    @property
    def stall_seconds(self) -> float:
        """Allocator stalls of one round."""
        return _total(self.timeline.tasks, ("stall",))

    @property
    def tail_comm_seconds(self) -> float:
        """Deferred gradient reduction seconds, once per step."""
        return _total(self.tail, ("comm",))

    @property
    def tail_seconds(self) -> float:
        """Optimizer seconds appended once per step."""
        return _total(self.tail, ("optim",))

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
        return self.comm_calls * self.rounds + _total(self.tail, ("comm",), "calls")

    @property
    def step_compute_seconds(self) -> float:
        """Busy compute seconds of a full step (no bubble idle time)."""
        return self.compute_seconds * self.rounds + self.tail_seconds

    def step_axis_comm_seconds(self) -> dict:
        """Per-step comm seconds by mesh axis (tail counts toward dp)."""
        per_round: dict[str, float] = {}
        for t in self.timeline.tasks:
            if t.kind == "comm":
                per_round[t.axis] = per_round.get(t.axis, 0.0) + t.duration
        out = {axis: s * self.rounds for axis, s in per_round.items()}
        if self.tail_comm_seconds:
            out["dp"] = out.get("dp", 0.0) + self.tail_comm_seconds
        return out

    def record(self, bus: TelemetryBus) -> None:
        """Replay the step onto ``bus`` as the events the engines emit.

        Each round's tasks, then the tail, become spans stamped at their
        scheduled start as a reading of the bus clock: on a virtual clock
        at 0 (``TelemetryBus(sink, clock=VirtualClock().now)``) the step
        starts at 0. The bubble rounds idle after the live ones. Every
        span carries its ``stream`` (resource) and ``task`` (name):
        ``comm.<op>`` with ``axis``, wire ``bytes`` and ``calls``;
        ``compute.<op>`` (``fwd`` / ``bwd``) with ``flops``;
        ``optim.step``; and ``perf.<kind>`` for the compute-stream time
        the model adds, ``perf.stall`` (allocator stalls) and
        ``perf.contention`` (a collective's serialized share).
        """
        one_round = self.timeline.run()
        span = max((s.end for s in one_round), default=0.0)
        placed = [
            (s.task, r * span + s.start) for r in range(self.rounds) for s in one_round
        ]
        t = span * self.pipeline_rounds
        for task in self.tail:
            placed.append((task, t))
            t += task.duration
        for task, start in placed:
            tags = {"stream": task.resource, "task": task.name}
            if task.kind == "comm":
                bus.record_span(
                    f"comm.{task.op}", start, task.duration, axis=task.axis,
                    bytes=task.bytes, calls=task.calls, **tags,
                )
            elif task.kind == "compute":
                bus.record_span(
                    f"compute.{task.op}", start, task.duration, flops=task.flops, **tags
                )
            elif task.kind == "optim":
                bus.record_span("optim.step", start, task.duration, **tags)
            else:
                bus.record_span(f"perf.{task.kind}", start, task.duration, **tags)


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
    tail = sched.tail
    if optimizer_seconds > 0:
        tail += (Task("optimizer", "compute", optimizer_seconds, kind="optim"),)
    return replace(sched, rounds=n_micro, bubble_rounds=pp - 1, tail=tail)


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
    def __init__(self, params: PerfParams, deferred: bool):
        self.tl = Timeline()
        self.tail: list[Task] = []
        self.kappa = params.comm_compute_contention
        self.deferred = deferred

    def add_compute(self, name: str, duration: float, deps=(), **what) -> int:
        return self.tl.add(name, "compute", duration, deps, kind="compute", **what)

    def add_stall(self, name: str, duration: float) -> int:
        return self.tl.add(name, "compute", duration, kind="stall")

    def add_comm(
        self,
        name: str,
        op: str,
        nbytes: float,
        duration: float,
        deps=(),
        axis: str = "dp",
        calls: int = 1,
    ) -> int:
        """Add a collective of ``nbytes`` bytes; returns the id its
        consumers must depend on.

        The collective occupies the comm stream for its full duration
        (consumers wait on that). Its HBM/CU contention is modeled as an
        additional dependency-free task of ``kappa x duration`` on the
        compute stream at the issue point: concurrent compute slows down
        by the contention share, but is never head-of-line blocked behind
        the wire transfer itself. ``calls`` lets one task stand for a
        burst of collectives (tp issues one gather per sharded GEMM).
        """
        tid = self.tl.add(
            name, "comm", duration, deps, kind="comm", op=op, axis=axis,
            bytes=nbytes, calls=calls,
        )
        if self.kappa > 0.0:
            self.tl.add(f"{name}#x", "compute", duration * self.kappa, kind="contention")
        return tid

    def reduce(self, name: str, op: str, nbytes: float, duration: float, after: int) -> int:
        """A gradient reduction after ``after``; returns what its consumers
        depend on. Deferred (accumulation reduces once per optimizer
        step), it joins the step tail: it runs after the last round,
        fully exposed, and nothing in the round waits on it."""
        if not self.deferred:
            return self.add_comm(name, op, nbytes, duration, (after,))
        self.tail.append(
            Task(name, "comm", float(duration), kind="comm", op=op, axis="dp",
                 bytes=nbytes, calls=1)
        )
        return after


def build_step_schedule(
    units: list[UnitCost],
    strategy: ShardingStrategy,
    world: World,
    cost_model: CollectiveCostModel,
    shard_size: int | None = None,
    params: PerfParams | None = None,
    mesh: MeshCommPlan | None = None,
    optimizer_seconds: float = 0.0,
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
    a full step with :func:`compose_pipeline`. ``optimizer_seconds``
    appends the optimizer after the last gradient reduction.
    """
    p = params if params is not None else PerfParams()
    if mesh is not None and mesh.tp_units and len(mesh.tp_units) != len(units):
        raise ValueError(
            f"mesh plan has {len(mesh.tp_units)} tp unit entries for "
            f"{len(units)} units"
        )
    row = STRATEGY_TABLE[strategy]
    s = resolve_shard_size(strategy, shard_size, world.size)

    b = _StepBuilder(p, deferred=mesh is not None and mesh.reduce_per_step)
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
    tp_units = mesh.tp_units if mesh is not None else ()

    def tp_after(i: int, kind: str, cid: int) -> int:
        """Serialize unit ``i``'s tp reassembly gathers behind its compute."""
        if not tp_units:
            return cid
        burst = tp_units[i][0 if kind == "f" else 1]
        if burst.seconds <= 0.0 and burst.calls == 0:
            return cid
        return b.add_comm(
            f"TP{kind}:{units[i].name}", "all_gather", burst.nbytes, burst.seconds,
            (cid,), axis="tp", calls=max(1, burst.calls),
        )

    def pp(name: str, op: str, burst: Burst, deps: tuple[int, ...]) -> int:
        return b.add_comm(name, op, burst.nbytes, burst.seconds, deps, axis="pp")

    def t_ag(u: UnitCost) -> float:
        return cost_model.all_gather(u.param_bytes, shard_pl)

    # ---- forward ---------------------------------------------------------
    fwd_ids: list[int] = []
    pp_in_id: int | None = None
    if mesh is not None and mesh.pp_in.seconds > 0.0:
        # Boundary activation from the previous stage gates the first unit.
        pp_in_id = pp("PPrecv:f", "recv", mesh.pp_in, ())
    for i, u in enumerate(units):
        deps: list[int] = []
        if i == 0 and pp_in_id is not None:
            deps.append(pp_in_id)
        if sharded:
            ag_deps: list[int] = []
            if p.limit_all_gathers and i >= _GATHER_WINDOW:
                ag_deps.append(fwd_ids[i - _GATHER_WINDOW])
            agid = b.add_comm(
                f"AGf:{u.name}", "all_gather", u.param_bytes, t_ag(u), tuple(ag_deps)
            )
            if not p.limit_all_gathers:
                b.add_stall(f"stall_f:{u.name}", _ALLOC_STALL_S)
            deps.append(agid)
        cid = b.add_compute(
            f"F:{u.name}", u.fwd_seconds, tuple(deps), op="fwd", flops=u.flops
        )
        fwd_ids.append(tp_after(i, "f", cid))
    if mesh is not None and mesh.pp_out.seconds > 0.0:
        pp("PPsend:f", "send", mesh.pp_out, (fwd_ids[-1],))

    # ---- backward --------------------------------------------------------
    n = len(units)
    agb_ids: dict[int, int] = {}
    if regather_in_backward:
        u_last = units[n - 1]
        agb_ids[n - 1] = b.add_comm(
            f"AGb:{u_last.name}", "all_gather", u_last.param_bytes, t_ag(u_last),
            (fwd_ids[-1],),
        )
        if not p.limit_all_gathers:
            b.add_stall(f"stall_b:{u_last.name}", _ALLOC_STALL_S)
    grad_final_ids: list[int] = []
    bwd_ids: dict[int, int] = {}
    pp_grad_id: int | None = None
    if mesh is not None and mesh.pp_out.seconds > 0.0:
        # The gradient w.r.t. our boundary output arrives from the next
        # stage before the deepest unit can run its backward.
        pp_grad_id = pp("PPrecv:b", "recv", mesh.pp_out, (fwd_ids[-1],))

    def backward(i: int, deps: tuple[int, ...]) -> int:
        u = units[i]
        cid = b.add_compute(
            f"B:{u.name}", u.bwd_seconds, deps, op="bwd", flops=u.flops * BACKWARD_RATIO
        )
        return tp_after(i, "b", cid)

    if strategy is ShardingStrategy.DDP:
        # Backward computes first (ids known), buckets attach to readiness.
        for i in range(n - 1, -1, -1):
            deps = (pp_grad_id,) if i == n - 1 and pp_grad_id is not None else ()
            bwd_ids[i] = backward(i, deps)
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
                cost_model.all_reduce(bucket.nbytes, world_pl)
                * _DDP_COMM_INFLATION
            )
            grad_final_ids.append(
                b.reduce(
                    f"ARbucket{k}", "all_reduce", bucket.nbytes, dur,
                    bwd_ids[ready_unit],
                )
            )
    else:
        prev_bid: int | None = None
        for i in range(n - 1, -1, -1):
            u = units[i]
            deps = [agb_ids[i]] if regather_in_backward else []
            if i == n - 1 and pp_grad_id is not None:
                deps.append(pp_grad_id)
            bid = backward(i, tuple(deps))
            bwd_ids[i] = bid

            def issue_next_gather(dep_ids: tuple[int, ...]) -> None:
                nxt = units[i - 1]
                agb_ids[i - 1] = b.add_comm(
                    f"AGb:{nxt.name}", "all_gather", nxt.param_bytes, t_ag(nxt), dep_ids
                )
                if not p.limit_all_gathers:
                    b.add_stall(f"stall_b:{nxt.name}", _ALLOC_STALL_S)

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
                d_rs = cost_model.reduce_scatter(u.param_bytes, shard_pl)
                d_rep = 0.0
                if replica_pl is not None and replica_pl.group_size > 1:
                    d_rep = cost_model.all_reduce(u.param_bytes / s, replica_pl)
                rsid = b.reduce(
                    f"RS:{u.name}", "reduce_scatter", u.param_bytes, d_rs, bid
                )
                last = rsid
                if d_rep:
                    last = b.reduce(
                        f"ARrep:{u.name}", "all_reduce", u.param_bytes / s, d_rep, rsid
                    )
                grad_final_ids.append(last)
            else:
                # NO_SHARD or HYBRID_1GPU: full-gradient all-reduce.
                d_ar = cost_model.all_reduce(u.param_bytes, world_pl)
                if strategy is ShardingStrategy.NO_SHARD:
                    d_ar *= _NOSHARD_COMM_INFLATION
                rsid = b.reduce(f"AR:{u.name}", "all_reduce", u.param_bytes, d_ar, bid)
                grad_final_ids.append(rsid)

            if want_prefetch and p.prefetch is not BackwardPrefetch.BACKWARD_PRE:
                if p.prefetch is BackwardPrefetch.BACKWARD_POST:
                    issue_next_gather((bid,))
                else:  # NONE: wait for the reduce-scatter to finish
                    issue_next_gather((rsid,))
            prev_bid = bid

    # ---- pipeline gradient send / optimizer --------------------------------
    if mesh is not None and mesh.pp_in.seconds > 0.0:
        # Gradient w.r.t. our boundary input leaves toward the previous
        # stage once the shallowest unit finished its backward.
        pp("PPsend:b", "send", mesh.pp_in, (bwd_ids[0],))
    if optimizer_seconds > 0:
        b.tl.add(
            "optimizer", "compute", optimizer_seconds, tuple(grad_final_ids),
            kind="optim",
        )

    return StepSchedule(timeline=b.tl, tail=tuple(b.tail))
