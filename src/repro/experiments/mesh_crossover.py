"""Mesh perf reconciliation and Frontier-scale crossover curves.

Two halves, one discipline. First, *reconciliation*: every mesh row of
:mod:`repro.experiments.mesh_axes` is re-run and its measured per-axis
wire traffic (``RunReport.axis_bytes``/``axis_calls``) is compared
against the closed-form prediction from
:func:`repro.perf.mesh_model.predict_mesh_traffic`. SimComm is exact
data movement, so every axis's prediction must match the telemetry
**to the byte and to the call**.

Second, *extrapolation*: once the model is reconciled at proxy scale,
the mesh-aware :class:`~repro.perf.simulator.TrainStepSimulator` sweeps
the same axis compositions out to Frontier-scale worlds the test
machine cannot reach, producing fig1/fig2-style throughput crossover
curves — which axis composition wins at which world size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.config import get_mae_config
from repro.core.sharding import ShardingStrategy
from repro.experiments.mesh_axes import (
    BATCH,
    CONFIGS,
    MICRO_SLOTS,
    PROXY,
    STEPS,
    run_mesh_axes,
)
from repro.experiments.report import render_table
from repro.hardware.frontier import frontier_machine
from repro.mesh.spec import MeshSpec
from repro.perf.mesh_model import predict_mesh_traffic
from repro.perf.schedule import PerfParams
from repro.perf.simulator import TrainStepSimulator
from repro.telemetry.report import Check, Reconciliation, reconcile
from repro.utils.units import GIB, MIB

__all__ = [
    "CrossoverPoint",
    "AXES",
    "run_mesh_reconciliation",
    "axis_rows",
    "predict_crossover",
    "run_mesh_crossover",
    "render_mesh_crossover",
    "claims_mesh_crossover",
    "CROSSOVER_NODE_GRID",
    "CROSSOVER_MESHES",
]

#: The mesh axes, in reconciliation row order.
AXES = ("tp", "pp", "dp")


def run_mesh_reconciliation(steps: int = STEPS) -> list[tuple[str, Reconciliation]]:
    """Reconcile predictions against measured traffic for every CONFIGS row.

    Returns one ``(label, reconciliation)`` per mesh configuration, in
    CONFIGS order; its rows are ``<axis>_bytes`` then ``<axis>_calls``
    for each of :data:`AXES`.
    """
    measured = run_mesh_axes(steps)
    out: list[tuple[str, Reconciliation]] = []
    for (label, spec, strategy), point in zip(CONFIGS, measured):
        pred = predict_mesh_traffic(
            PROXY, spec, strategy, steps=steps, batch=BATCH, micro_slots=MICRO_SLOTS
        )
        rows = (
            (
                f"{axis}_{what}",
                getattr(pred.axis(axis), what),
                getattr(point, f"{axis}_{what}"),
                "==",
            )
            for axis in AXES
            for what in ("bytes", "calls")
        )
        out.append((label, reconcile(rows)))
    return out


def axis_rows(
    results: list[tuple[str, Reconciliation]],
) -> Iterator[tuple[str, str, Check, Check]]:
    """``(label, axis, bytes row, calls row)`` per mesh and axis."""
    for label, recon in results:
        for axis, b, c in zip(AXES, recon.rows[0::2], recon.rows[1::2]):
            yield label, axis, b, c


# -- Frontier-scale extrapolation ------------------------------------------

#: Node counts of the predicted sweep (x8 GCDs each): well past what the
#: test machine executes, into the regime the paper's figures live in.
CROSSOVER_NODE_GRID = [4, 16, 64, 256, 1024]
#: Axis compositions swept at every world size ``w`` (in GCDs). The dp
#: residual axis absorbs the rest of the world.
CROSSOVER_MESHES = [
    ("dp", lambda w: MeshSpec(dp=w)),
    ("tp8 x dp", lambda w: MeshSpec(tp=8, dp=w // 8)),
    ("pp8 x dp", lambda w: MeshSpec(pp=8, dp=w // 8, schedule="1f1b")),
    ("pp4 x tp8 x dp", lambda w: MeshSpec(pp=4, tp=8, dp=w // 32, schedule="1f1b")),
]
CROSSOVER_VARIANT = "vit-3b"
CROSSOVER_LOCAL_BATCH = 32
CROSSOVER_MICROS = 8


@dataclass(frozen=True)
class CrossoverPoint:
    """One predicted (mesh composition, world size) operating point."""

    mesh: str
    nodes: int
    world: int
    shape: str
    ips: float
    step_time_s: float
    bubble_fraction: float
    tp_comm_s: float
    pp_comm_s: float
    dp_comm_s: float
    comm_fraction: float
    memory_gib: float


def predict_crossover(
    node_grid: list[int] | None = None,
) -> list[CrossoverPoint]:
    """Sweep the predicted mesh compositions across Frontier-scale worlds."""
    nodes_list = node_grid if node_grid is not None else CROSSOVER_NODE_GRID
    model = get_mae_config(CROSSOVER_VARIANT)
    points: list[CrossoverPoint] = []
    for label, build in CROSSOVER_MESHES:
        for nodes in nodes_list:
            machine = frontier_machine(nodes)
            world = machine.n_gpus
            spec = build(world)
            sim = TrainStepSimulator(
                model=model,
                machine=machine,
                strategy=ShardingStrategy.FULL_SHARD,
                params=PerfParams(
                    local_batch=CROSSOVER_LOCAL_BATCH,
                    mesh=spec,
                    pipeline_micros=CROSSOVER_MICROS,
                ),
            )
            b = sim.simulate()
            axes = b.axis_comm_seconds
            points.append(
                CrossoverPoint(
                    mesh=label,
                    nodes=nodes,
                    world=world,
                    shape=f"{spec.pp}x{spec.dp}x{spec.tp}",
                    ips=b.ips,
                    step_time_s=b.step_time_s,
                    bubble_fraction=b.bubble_fraction,
                    tp_comm_s=axes.get("tp", 0.0),
                    pp_comm_s=axes.get("pp", 0.0),
                    dp_comm_s=axes.get("dp", 0.0),
                    comm_fraction=b.comm_fraction,
                    memory_gib=b.memory.total / GIB,
                )
            )
    return points


# -- rendering -------------------------------------------------------------


def _render_reconciliation(results: list[tuple[str, Reconciliation]]) -> str:
    rows = list(axis_rows(results))
    body = render_table(
        ["mesh", "axis", "pred MiB", "meas MiB", "pred #", "meas #", "ok"],
        [
            [
                label,
                axis,
                round(b.predicted / MIB, 6),
                round(b.measured / MIB, 6),
                c.predicted,
                c.measured,
                "yes" if b.ok and c.ok else "NO",
            ]
            for label, axis, b, c in rows
        ],
        title="Predicted vs measured per-axis wire traffic (exact on every axis)",
        precision=6,
    )
    bad = [f"{label}/{axis}" for label, axis, b, c in rows if not (b.ok and c.ok)]
    footer = (
        "all axes reconcile: the analytic mesh model matches the executed bytes"
        if not bad
        else "RECONCILIATION FAILED: " + ", ".join(bad)
    )
    return body + "\n" + footer


def _render_crossover(points: list[CrossoverPoint]) -> str:
    from repro.experiments.asciiplot import line_chart

    body = render_table(
        ["mesh", "nodes", "pp x dp x tp", "ips", "step s", "bubble",
         "tp s", "pp s", "dp s", "comm %", "GiB/gcd"],
        [
            [
                p.mesh,
                p.nodes,
                p.shape,
                round(p.ips, 1),
                round(p.step_time_s, 4),
                round(p.bubble_fraction, 3),
                round(p.tp_comm_s, 4),
                round(p.pp_comm_s, 4),
                round(p.dp_comm_s, 4),
                round(100 * p.comm_fraction, 1),
                round(p.memory_gib, 2),
            ]
            for p in points
        ],
        title=(
            f"Predicted mesh crossover, MAE {CROSSOVER_VARIANT}, FULL_SHARD dp, "
            f"local batch {CROSSOVER_LOCAL_BATCH}, {CROSSOVER_MICROS} micros"
        ),
        precision=4,
    )
    nodes = sorted({p.nodes for p in points})
    curves = {
        label: [
            next(p.ips for p in points if p.mesh == label and p.nodes == n)
            for n in nodes
        ]
        for label, _ in CROSSOVER_MESHES
    }
    chart = line_chart(
        nodes,
        curves,
        title="predicted ips vs nodes by mesh composition (log-log)",
        logx=True,
        logy=True,
    )
    return body + "\n\n" + chart


MeshCrossover = tuple[list[tuple[str, Reconciliation]], list[CrossoverPoint]]


def run_mesh_crossover() -> MeshCrossover:
    """Both halves: the proxy-scale reconciliation, then the predicted sweep."""
    return run_mesh_reconciliation(), predict_crossover()


def render_mesh_crossover(result: MeshCrossover) -> str:
    """Reconciliation table + Frontier-scale predicted crossover curves."""
    recon, points = result
    return _render_reconciliation(recon) + "\n\n" + _render_crossover(points)


def claims_mesh_crossover(result: MeshCrossover) -> list[tuple[str, bool]]:
    """Every mesh's predicted traffic reconciles with the executed bytes."""
    recon, _ = result
    return [
        (f"{label}: predicted per-axis bytes and calls reconcile exactly with the "
         "measured", r.reconciled)
        for label, r in recon
    ]
