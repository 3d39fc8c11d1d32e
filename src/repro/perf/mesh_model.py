"""Closed-form per-axis collective payloads of a TP x PP x DP mesh.

The mesh engines (:mod:`repro.mesh.engine`) *measure* per-axis wire
traffic by tagging every collective span with its mesh axis; this module
*predicts* the same quantities from the model configuration alone, so
the two can be reconciled row-by-row (``python -m repro.experiments
mesh-crossover``). Because :class:`repro.comm.sim.SimComm` is exact data
movement — every booked byte is an actually-copied NumPy byte — the
predictions must match the measured telemetry *exactly* on every axis:
the pipeline's boundary sends are real copies too (only the inline
backend runs ``pp > 1``).

Where the numbers come from (all derived, none fitted):

tensor parallel
    The engine shards the four flagged GEMMs of every transformer block
    (qkv, attention proj, MLP fc1/fc2) and round-trips each sharded
    GEMM's *output* through an all-gather. For a block of width ``W``,
    mlp ``M`` and ``R = batch * seq`` rows, one forward pass reassembles
    ``R * (3W + W + M + W)`` values and one backward (the ``dx`` of the
    same GEMMs) ``R * (W + W + W + M)``. Every microbatch runs each
    pass once on either backend and at every ``pp`` (pipeline stages
    stash their activations rather than recompute them).

pipeline parallel
    Boundary ``s`` carries the output activation of the last op of stage
    ``s`` forward and its gradient backward, so one microbatch moves
    ``2 * sum(boundary bytes)`` and makes ``2 * (pp - 1)`` transfers.

data parallel
    Derived from the strategy's row of
    :data:`~repro.core.sharding.STRATEGY_TABLE` — the row the engine
    executes — for any strategy over any group
    (:func:`dp_traffic_by_op`): per round, every unit's padded flat is
    all-gathered inside each shard group as often as the row gathers;
    per step, every gradient buffer goes through the row's reduce
    sequence (booked even at ``dp == 1``, matching the engine). On a
    mesh, ``ddp`` reduces one concatenated full-model gradient.

Every closed form reads the workload's unit table
(:func:`repro.perf.compute_model.unit_table`). The second half of the
module feeds the *analytic* simulator
(:class:`repro.perf.TrainStepSimulator` with ``PerfParams.mesh``):
tp-shardable parameter fractions, mesh-aware group placements, and a
point-to-point transfer time (the collective cost model has no p2p
primitive; a boundary send is one alpha plus the payload over the link).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.cost_model import CollectiveCostModel, GroupPlacement
from repro.comm.world import World
from repro.core.config import MAEConfig, ViTConfig
from repro.core.sharding import (
    STRATEGY_TABLE,
    ShardingStrategy,
    parse_strategy,
    resolve_shard_size,
)
from repro.mesh.pipeline import partition_stages
from repro.mesh.spec import MeshSpec
from repro.perf.compute_model import UnitRow, unit_table

__all__ = [
    "AxisTraffic",
    "MeshTrafficPrediction",
    "predict_mesh_traffic",
    "tp_traffic_per_micro",
    "pp_traffic_per_micro",
    "dp_traffic_by_op",
    "dp_traffic_per_step",
    "dp_unit_numels",
    "tp_gather_values",
    "tp_shardable_fraction",
    "mesh_axis_placements",
    "pp_boundary_crosses_nodes",
    "p2p_seconds",
]

#: The executable engines run NumPy float64 end to end.
ENGINE_ITEMSIZE = 8


@dataclass(frozen=True)
class AxisTraffic:
    """Wire bytes and collective calls booked on one mesh axis."""

    bytes: float = 0.0
    calls: int = 0

    def scaled(self, factor: int) -> "AxisTraffic":
        """The same traffic repeated ``factor`` times."""
        return AxisTraffic(bytes=self.bytes * factor, calls=self.calls * factor)


@dataclass(frozen=True)
class MeshTrafficPrediction:
    """Predicted per-axis traffic of a whole run (``steps`` steps)."""

    tp: AxisTraffic
    pp: AxisTraffic
    dp: AxisTraffic

    def axis(self, name: str) -> AxisTraffic:
        """Traffic on axis ``name`` (``"tp"``/``"pp"``/``"dp"``)."""
        if name not in ("tp", "pp", "dp"):
            raise KeyError(f"unknown mesh axis {name!r}")
        return getattr(self, name)


# -- engine-exact traffic (the reconciliation targets) ---------------------


def tp_gather_values(row: UnitRow, batch: int) -> tuple[tuple[int, ...], ...]:
    """Per-gather reassembly values of one unit of ``row``: ``(forward,
    backward)``, one entry per flagged GEMM; both empty for the root,
    whose GEMMs are not tp-sharded.

    Forward gathers the qkv ``R x 3W``, proj ``R x W``, fc1 ``R x M`` and
    fc2 ``R x W`` outputs (``R = batch * seq``); backward their ``dx``:
    ``R x W`` each, except fc2's ``R x M``.
    """
    if not row.gemm_params:
        return (), ()
    rows = batch * row.seq
    w, m = row.width, row.mlp
    return (
        tuple(rows * n for n in (3 * w, w, m, w)),
        tuple(rows * n for n in (w, w, w, m)),
    )


def tp_traffic_per_micro(
    model: ViTConfig | MAEConfig,
    batch: int,
    itemsize: int = ENGINE_ITEMSIZE,
) -> AxisTraffic:
    """Tensor-parallel reassembly traffic of one microbatch: each
    flagged GEMM's full (post-gather) output crosses the tp group once
    per pass (:func:`tp_gather_values`), eight gathers per block."""
    total_values = 0
    calls = 0
    for r in unit_table(model):
        fwd, bwd = tp_gather_values(r, batch)
        total_values += r.depth * (sum(fwd) + sum(bwd))
        calls += r.depth * (len(fwd) + len(bwd))
    return AxisTraffic(bytes=float(total_values * itemsize), calls=calls)


def pipeline_op_values(model: MAEConfig, batch: int) -> list[int]:
    """Output-activation value counts of each pipeline op, in order.

    Mirrors ``MaskedAutoencoder.pipeline_ops()``: ``[head] + enc blocks
    + [bridge] + dec blocks + [tail]``. The op before each block stack
    (head, bridge) emits that stack's activation, as do its blocks; the
    tail terminates the pipeline (no output).
    """
    stacks = unit_table(model)[1:]
    values = [r.activation_values(batch) for r in stacks for _ in range(1 + r.depth)]
    return values + [0]


def pp_traffic_per_micro(
    model: MAEConfig, pp: int, batch: int, itemsize: int = ENGINE_ITEMSIZE
) -> AxisTraffic:
    """Pipeline boundary traffic of one microbatch at ``pp`` stages."""
    if not isinstance(model, MAEConfig):
        raise TypeError(
            "pipeline traffic needs a model exposing pipeline_ops(); "
            f"got {type(model).__name__} (only MAEConfig workloads pipeline)"
        )
    values = pipeline_op_values(model, batch)
    bounds = partition_stages(len(values), pp)
    boundary = sum(values[stop - 1] for _, stop in bounds[:-1])
    return AxisTraffic(bytes=float(2 * boundary * itemsize), calls=2 * (pp - 1))


def dp_unit_numels(model: ViTConfig | MAEConfig) -> list[int]:
    """Parameter counts of the FSDP wrap units, root first.

    Mirrors the default wrap policy (:func:`repro.core.sharding
    .default_wrap_units`): one unit per transformer block, everything
    else in the root unit.
    """
    return [r.params for r in unit_table(model) for _ in range(r.depth)]


def dp_traffic_by_op(
    numels: list[int],
    strategy: ShardingStrategy,
    group_size: int,
    grad_accum_steps: int = 1,
    shard_size: int | None = None,
    itemsize: int = ENGINE_ITEMSIZE,
) -> dict[str, AxisTraffic]:
    """Per-collective calls and logical payload bytes of one optimizer
    step of ``strategy`` over a data-parallel group, read off its row.

    ``numels`` are the sizes of the gradient buffers the row reduces:
    the wrap units (:func:`dp_unit_numels`) for a ``"units"`` row, the
    gradient buckets for DDP. Payloads are what the engine's ``comm.*``
    spans carry at full precision (the whole padded flat for a gather
    or reduce-scatter, one shard for the cross-replica all-reduce);
    calls are what ``comm.stats.calls_by_op`` counts. The reduce follows
    the row's natural layout (no elastic fold).
    """
    row = STRATEGY_TABLE[strategy]
    k = grad_accum_steps
    s = resolve_shard_size(strategy, shard_size, group_size)
    n_groups = group_size // s
    n = len(numels)
    flat_bytes = float(sum(-(-m // s) * s for m in numels) * itemsize)

    def whole_flats(repeats: int) -> AxisTraffic:
        """``repeats`` collectives over every buffer's whole padded flat."""
        return AxisTraffic(bytes=repeats * flat_bytes, calls=repeats * n)

    out: dict[str, AxisTraffic] = {}
    gathers = row.gathers(s) + row.gathers(s, backward=True)
    if gathers:
        out["all_gather"] = whole_flats(gathers * k * n_groups)
    if len(row.reduce) == 1:
        out[row.reduce[0]] = whole_flats(1)
    else:
        # Per round inside every shard group; then, unless one round in
        # one group was already the whole reduction, each of the ``s``
        # shard indices (a 1/s payload) across the replica groups.
        out[row.reduce[0]] = whole_flats(k * n_groups)
        if k > 1 or n_groups > 1:
            out[row.reduce[1]] = AxisTraffic(bytes=flat_bytes, calls=s * n)
    return out


def dp_traffic_per_step(
    model: ViTConfig | MAEConfig,
    spec: MeshSpec,
    dp_strategy: str,
    grad_accum_steps: int,
    itemsize: int = ENGINE_ITEMSIZE,
) -> AxisTraffic:
    """Data-parallel traffic of one optimizer step on a mesh: the
    strategy's row over the ``dp`` group (:func:`dp_traffic_by_op`),
    with the DDP row's buckets coalesced into one full-model buffer as
    the mesh engine coalesces them."""
    strategy, shard_size = parse_strategy(dp_strategy)
    numels = dp_unit_numels(model)
    if STRATEGY_TABLE[strategy].storage == "params":
        numels = [sum(numels)]
    by_op = dp_traffic_by_op(
        numels, strategy, spec.dp, grad_accum_steps, shard_size, itemsize
    )
    return AxisTraffic(
        bytes=sum(t.bytes for t in by_op.values()),
        calls=sum(t.calls for t in by_op.values()),
    )


def predict_mesh_traffic(
    model: ViTConfig | MAEConfig,
    spec: MeshSpec,
    dp_strategy: str,
    steps: int,
    batch: int,
    micro_slots: int = 4,
    itemsize: int = ENGINE_ITEMSIZE,
) -> MeshTrafficPrediction:
    """Predict a mesh training run's per-axis wire bytes and calls.

    ``micro_slots`` is the *global* microbatch count per step (the mesh
    drivers fix it at 4 so every mesh consumes identical data); each of
    the ``dp`` replicas runs ``micro_slots / dp`` accumulation rounds.
    Tensor- and pipeline-axis traffic is booked once per microbatch
    execution — ``micro_slots`` of them per step across the world.
    """
    if micro_slots % spec.dp != 0:
        raise ValueError(
            f"dp={spec.dp} does not divide {micro_slots} micro slots"
        )
    k = micro_slots // spec.dp
    tp = AxisTraffic()
    if spec.tp > 1:
        tp = tp_traffic_per_micro(model, batch, itemsize).scaled(
            micro_slots * steps
        )
    pp = AxisTraffic()
    if spec.pp > 1:
        pp = pp_traffic_per_micro(model, spec.pp, batch, itemsize).scaled(
            micro_slots * steps
        )
    dp = dp_traffic_per_step(model, spec, dp_strategy, k, itemsize).scaled(steps)
    return MeshTrafficPrediction(tp=tp, pp=pp, dp=dp)


# -- analytic-simulator inputs (Frontier-scale extrapolation) --------------


def tp_shardable_fraction(model: ViTConfig | MAEConfig) -> float:
    """Share of all parameters living in tp-sharded GEMM weights."""
    table = unit_table(model)
    shardable = sum(r.depth * r.gemm_params for r in table)
    return shardable / sum(r.depth * r.params for r in table)


def mesh_axis_placements(world: World, spec: MeshSpec) -> dict[str, GroupPlacement]:
    """Group placements of the tp and dp axes on a machine.

    tp ranks are adjacent (innermost axis), so a tp group spans
    ``ceil(tp / ranks_per_node)`` nodes. dp members stride over tp
    blocks: ``max(1, ranks_per_node // tp)`` of them share a node, and
    when a dp ring crosses nodes it runs concurrently with the
    ``min(tp, ranks_per_node)`` sibling rings of the other tp indices,
    which share each NIC.
    """
    rpn = world.ranks_per_node
    tp_pl = GroupPlacement(
        group_size=spec.tp, nodes_spanned=max(1, -(-spec.tp // rpn)), nic_share=1
    )
    per_node = max(1, rpn // spec.tp)
    dp_nodes = max(1, min(spec.dp, -(-spec.dp // per_node)))
    dp_pl = GroupPlacement(
        group_size=spec.dp,
        nodes_spanned=dp_nodes,
        nic_share=min(spec.tp, rpn) if dp_nodes > 1 else 1,
    )
    return {"tp": tp_pl, "dp": dp_pl}


def pp_boundary_crosses_nodes(world: World, spec: MeshSpec) -> bool:
    """Whether neighbouring pipeline stages live on different nodes.

    Stages stride over whole ``dp x tp`` planes, so the boundary leaves
    the node as soon as one plane fills it.
    """
    return spec.pp > 1 and spec.dp * spec.tp >= world.ranks_per_node


def p2p_seconds(
    cost_model: CollectiveCostModel,
    nbytes: float,
    crosses_nodes: bool,
) -> float:
    """Point-to-point activation transfer time (pipeline boundary send).

    The collective cost model has no p2p primitive; a boundary send is
    one hop latency and the payload over the link — NIC for cross-node
    neighbours, Infinity Fabric otherwise.
    """
    if nbytes <= 0:
        return 0.0
    bw = cost_model.inter_node_bw if crosses_nodes else cost_model.intra_node_bw
    alpha = (
        cost_model.inter_node_alpha if crosses_nodes else cost_model.intra_node_alpha
    )
    return alpha + nbytes / bw
