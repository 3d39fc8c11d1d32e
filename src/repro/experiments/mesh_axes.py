"""Mesh-axis communication breakdown — the TP/PP columns.

The paper's scaling figures stop at data-parallel strategies; its
follow-ons (3-D megatron-style tensor x pipeline x data parallelism on
Frontier) hinge on where each added axis spends its wire bytes. This
driver trains one proxy MAE under every single-axis mesh and the full
TP x PP x DP composition, reads the per-axis traffic back from the
telemetry bus (``comm.<op>`` spans tagged ``axis=``), and tabulates the
crossover: which axis dominates communication at which composition.

Because every mesh is fp32 bit-identical to the single-rank oracle (the
differential suites), the loss column doubles as a correctness readout:
all rows must print the same number (:func:`claims_mesh_axes`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.world import World
from repro.core.config import MAEConfig, ViTConfig
from repro.core.engine import EngineConfig, make_engine
from repro.core.trainer import _mae_step_fn
from repro.experiments.report import render_table
from repro.mesh.spec import MeshSpec
from repro.models.mae import MaskedAutoencoder
from repro.telemetry import RecordingSink, RunReport, TelemetryBus
from repro.utils.units import MIB

__all__ = [
    "MeshAxisPoint",
    "MicroSlotError",
    "MICRO_SLOTS",
    "run_mesh_axes",
    "render_mesh_axes",
    "claims_mesh_axes",
]

#: Proxy model for the axis sweep: 4 heads so tp in {2, 4} divides, 7
#: pipeline ops so pp up to 7 partitions.
PROXY = MAEConfig(
    encoder=ViTConfig(
        name="mesh-proxy", width=32, depth=2, mlp=64, heads=4, patch=8, img_size=16
    ),
    dec_width=32,
    dec_depth=2,
    dec_heads=4,
    mask_ratio=0.5,
)

#: The sweep: label, mesh, dp strategy.
CONFIGS = [
    ("dp4 / ddp", MeshSpec(dp=4), "ddp"),
    ("dp4 / fsdp", MeshSpec(dp=4), "full_shard"),
    ("tp4", MeshSpec(tp=4), "ddp"),
    ("pp4 gpipe", MeshSpec(pp=4, schedule="gpipe"), "ddp"),
    ("pp4 1f1b", MeshSpec(pp=4, schedule="1f1b"), "ddp"),
    ("pp2xdp2xtp2", MeshSpec(pp=2, dp=2, tp=2, schedule="1f1b"), "full_shard"),
]

STEPS = 2
BATCH = 2
#: Microbatch slots every configuration consumes per step. dp splits
#: them across replicas and grad accumulation fills the rest, so
#: ``MICRO_SLOTS % dp == 0`` is a hard contract of the sweep.
MICRO_SLOTS = 4


class MicroSlotError(ValueError):
    """A mesh's dp degree does not evenly divide the micro slots.

    Raised instead of silently floor-dividing: dropping micros would
    train on less data and break the bit-identical-loss contract.
    """


@dataclass(frozen=True)
class MeshAxisPoint:
    """Per-axis communication totals for one mesh configuration.

    ``*_bytes``/``*_calls`` are the exact measured telemetry totals the
    reconciliation harness compares against, over ``steps`` training
    steps; ``loss`` is the last step's.
    """

    label: str
    shape: str
    strategy: str
    tp_bytes: int
    pp_bytes: int
    dp_bytes: int
    tp_calls: int
    pp_calls: int
    dp_calls: int
    loss: float
    steps: int


def _micros(n: int, seed: int) -> list:
    enc = PROXY.encoder
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        imgs = rng.standard_normal(
            (BATCH, enc.in_chans, enc.img_size, enc.img_size)
        ).astype(np.float64)
        noise = rng.random((BATCH, enc.n_patches))
        out.append((imgs, noise))
    return out


def run_mesh_axes(steps: int = STEPS) -> list[MeshAxisPoint]:
    """Train the proxy MAE under each mesh; read traffic off the bus.

    Every configuration consumes the same four microbatches per step
    (mesh engines split micros along dp only; k fills the rest), so the
    final losses — and the underlying fp32 trajectories — agree
    bit-for-bit across rows.
    """
    points = []
    for label, spec, strategy in CONFIGS:
        bus = TelemetryBus(RecordingSink())
        if MICRO_SLOTS % spec.dp != 0:
            raise MicroSlotError(
                f"mesh {spec.describe()}: dp={spec.dp} does not divide the "
                f"{MICRO_SLOTS} micro slots evenly; every configuration must "
                f"consume exactly {MICRO_SLOTS} microbatches per step "
                "(dp replicas x grad_accum_steps) or the bit-identical-loss "
                "contract breaks"
            )
        k = MICRO_SLOTS // spec.dp
        engine = make_engine(
            MaskedAutoencoder(PROXY, rng=np.random.default_rng(7)),
            strategy,
            world=World(spec.size),
            config=EngineConfig(mesh=spec, grad_accum_steps=k, telemetry=bus),
        )
        try:
            for s in range(steps):
                loss = engine.train_step(_micros(4, seed=50 + s), _mae_step_fn)
        finally:
            engine.close()
        report = RunReport.from_events(bus.sink.events)
        points.append(
            MeshAxisPoint(
                label=label,
                shape=f"{spec.pp}x{spec.dp}x{spec.tp}",
                strategy=strategy,
                tp_bytes=int(report.axis_bytes("tp")),
                pp_bytes=int(report.axis_bytes("pp")),
                dp_bytes=int(report.axis_bytes("dp")),
                tp_calls=report.axis_calls("tp"),
                pp_calls=report.axis_calls("pp"),
                dp_calls=report.axis_calls("dp"),
                loss=loss,
                steps=steps,
            )
        )
    return points


def render_mesh_axes(points: list[MeshAxisPoint]) -> str:
    """ASCII table of per-axis wire traffic across mesh compositions."""
    rows = [
        [
            p.label,
            p.shape,
            p.strategy,
            round(p.tp_bytes / MIB, 3),
            round(p.pp_bytes / MIB, 3),
            round(p.dp_bytes / MIB, 3),
            p.tp_calls,
            p.pp_calls,
            p.dp_calls,
            f"{p.loss:.12f}",
        ]
        for p in points
    ]
    return render_table(
        ["mesh", "pp x dp x tp", "dp strat", "tp MiB", "pp MiB", "dp MiB",
         "tp#", "pp#", "dp#", "loss (bit-identical)"],
        rows,
        title=(
            f"Per-axis communication, proxy MAE, {points[0].steps} steps, "
            f"{MICRO_SLOTS} micro slots"
        ),
        precision=3,
    )


def claims_mesh_axes(points: list[MeshAxisPoint]) -> list[tuple[str, bool]]:
    """Every mesh reproduces the oracle trajectory."""
    return [
        ("every mesh's final loss is bit-identical (the oracle trajectory)",
         len({f"{p.loss:.17g}" for p in points}) == 1),
    ]
