"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper — these probe the *mechanisms* behind its
findings:

- :func:`ddp_bucket_sweep` — how DDP's fixed bucket size creates the
  model-size-dependent gap of Fig. 3 (sweep the cap, watch call count
  and throughput);
- :func:`shard_group_sweep` — throughput and memory across every
  HYBRID_<n>GPUs shard-group size for one model/scale (the Fig. 4
  trade-off isolated);
- :func:`contention_sweep` — sensitivity of the Fig. 1 communication
  share to the compute/communication contention factor (the headline
  calibration knob).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ViTConfig, get_mae_config, get_vit_config
from repro.core.sharding import ShardingStrategy
from repro.experiments.report import render_table
from repro.hardware.frontier import frontier_machine
from repro.perf.schedule import PerfParams
from repro.perf.simulator import TrainStepSimulator

__all__ = [
    "BucketPoint",
    "ddp_bucket_sweep",
    "render_bucket_sweep",
    "ShardGroupPoint",
    "shard_group_sweep",
    "render_shard_group_sweep",
    "contention_sweep",
    "render_contention_sweep",
    "run_ablations",
    "render_ablations",
    "claims_ablations",
]


@dataclass(frozen=True)
class BucketPoint:
    cap_mb: int
    comm_calls: int
    ips: float


def ddp_bucket_sweep(
    model_name: str = "vit-3b",
    n_nodes: int = 32,
    caps_mb: tuple[int, ...] = (5, 25, 100, 400, 1600),
) -> list[BucketPoint]:
    """Sweep DDP bucket caps; returns (cap, calls, ips) points."""
    cfg: ViTConfig = get_vit_config(model_name)
    machine = frontier_machine(n_nodes)
    out = []
    for cap in caps_mb:
        params = PerfParams(ddp_bucket_cap_bytes=cap * 1024 * 1024)
        sim = TrainStepSimulator(cfg, machine, ShardingStrategy.DDP, params=params)
        sched = sim.build_schedule()
        out.append(
            BucketPoint(cap_mb=cap, comm_calls=sched.comm_calls, ips=sim.simulate().ips)
        )
    return out


def render_bucket_sweep(points: list[BucketPoint]) -> str:
    """Render the DDP bucket sweep as a text table."""
    body = render_table(
        ["bucket cap [MB]", "all-reduce calls", "ips"],
        [[p.cap_mb, p.comm_calls, round(p.ips, 1)] for p in points],
        title="Ablation: DDP bucket size (ViT-3B, 32 nodes)",
        precision=1,
    )
    return (
        f"{body}\nPyTorch's default 25 MB cap is far from optimal for "
        "billion-parameter models — the mechanism behind Fig. 3's "
        "growing DDP-vs-FSDP gap."
    )


@dataclass(frozen=True)
class ShardGroupPoint:
    shard_size: int
    ips: float
    memory_gib: float
    comm_calls: int


def shard_group_sweep(
    model_name: str = "vit-5b",
    n_nodes: int = 32,
    shard_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> list[ShardGroupPoint]:
    """Sweep HYBRID shard-group sizes; returns per-size points."""
    cfg = get_vit_config(model_name)
    machine = frontier_machine(n_nodes)
    out = []
    for s in shard_sizes:
        if machine.world().size % s:
            continue
        sim = TrainStepSimulator(
            cfg, machine, ShardingStrategy.HYBRID_SHARD, shard_size=s
        )
        bd = sim.simulate()
        out.append(
            ShardGroupPoint(
                shard_size=s,
                ips=bd.ips,
                memory_gib=bd.memory.total / 2**30,
                comm_calls=bd.comm_calls,
            )
        )
    return out


def render_shard_group_sweep(points: list[ShardGroupPoint]) -> str:
    """Render the shard-group sweep as a text table."""
    return render_table(
        ["shard group", "ips", "per-GPU GiB", "collective calls"],
        [
            [p.shard_size, round(p.ips, 1), round(p.memory_gib, 1), p.comm_calls]
            for p in points
        ],
        title="Ablation: HYBRID shard-group size (ViT-5B, 32 nodes)",
        precision=1,
    )


def contention_sweep(
    kappas: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0),
    n_nodes: int = 64,
) -> list[tuple[float, float]]:
    """(kappa, exposed-communication fraction) for the Fig. 1 workload."""
    mae = get_mae_config("vit-3b", img_size=504)
    machine = frontier_machine(n_nodes)
    out = []
    for kappa in kappas:
        params = PerfParams(comm_compute_contention=kappa)
        bd = TrainStepSimulator(
            mae, machine, ShardingStrategy.NO_SHARD, params=params
        ).simulate()
        out.append((kappa, bd.comm_fraction))
    return out


def render_contention_sweep(points: list[tuple[float, float]]) -> str:
    """Render the contention sweep as a text table."""
    body = render_table(
        ["contention kappa", "exposed comm share"],
        [[k, f"{100 * f:.1f}%"] for k, f in points],
        title="Ablation: overlap contention vs Fig. 1 communication share",
    )
    return (
        f"{body}\nthe paper's measured ~22% at 64 nodes pins kappa near "
        "0.9 — communication on the MI250X is almost fully exposed."
    )


Ablations = tuple[list[BucketPoint], list[ShardGroupPoint], list[tuple[float, float]]]


def run_ablations() -> Ablations:
    """The three sweeps at their defaults: buckets, shard groups, contention."""
    return ddp_bucket_sweep(), shard_group_sweep(), contention_sweep()


def render_ablations(result: Ablations) -> str:
    """Render the three sweeps, blank-line separated."""
    renders = (render_bucket_sweep, render_shard_group_sweep, render_contention_sweep)
    return "\n\n".join(render(part) for render, part in zip(renders, result))


def claims_ablations(result: Ablations) -> list[tuple[str, bool]]:
    """The mechanisms' shapes behind Figs. 1, 3 and 4."""
    buckets, groups, contention = result
    by_cap = {p.cap_mb: p for p in buckets}
    by_size = {p.shard_size: p for p in groups}
    mems = [by_size[s].memory_gib for s in sorted(by_size)]
    shares = [f for _, f in contention]
    return [
        ("DDP all-reduce calls fall as the bucket cap grows (5 > 25 > 400 MB)",
         by_cap[5].comm_calls > by_cap[25].comm_calls > by_cap[400].comm_calls),
        ("a 400 MB bucket cap is more than 5% faster than PyTorch's default 25 MB",
         by_cap[400].ips > 1.05 * by_cap[25].ips),
        ("per-GPU memory never grows with the HYBRID shard group",
         all(a >= b for a, b in zip(mems, mems[1:]))),
        ("shard group 1 has the highest ips", by_size[1].ips == max(p.ips for p in groups)),
        ("the exposed communication share never falls as contention grows",
         shares == sorted(shares)),
        ("zero contention exposes less than 10% communication", shares[0] < 0.10),
        ("the largest contention exposes between 15% and 40% communication "
         "(paper: ~22% at 64 nodes)", 0.15 < shares[-1] < 0.40),
    ]
