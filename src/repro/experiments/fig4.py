"""Fig. 4 — weak scaling of the models that do NOT fit on one GPU.

ViT-5B (2+ GPUs in the paper) and ViT-15B (4+; its memory panel puts
HYBRID_4GPUs over a GCD's HBM, ROADMAP item 21) under HYBRID_{2,4,8,16},
FULL_SHARD and SHARD_GRAD_OP; memory panels; the rocm-smi-style
power/utilization trace for the 5B on 32 nodes; and the SHARD_GRAD_OP
vs FULL_SHARD throughput comparison the paper quotes (1509 vs 1307 ips).

Expected shapes (paper Section IV-D):

- FULL_SHARD scales better for these models than it did in Fig. 3;
- ViT-15B: SHARD_GRAD_OP scales best of all strategies;
- SHARD_GRAD_OP > FULL_SHARD throughput, with correspondingly higher
  power; utilization ~100% for all strategies.

Documented deviations (see EXPERIMENTS.md): the paper claims
HYBRID_8/16GPUs outperform HYBRID_2/4GPUs for the 5B; our model
reproduces HYBRID_8 > HYBRID_2 (memory-pressure reallocation) but keeps
HYBRID_4 competitive and HYBRID_16 behind, because a 16-wide shard group
must all-gather across the node boundary every unit — the paper's own
explanation ("distributing the compute") does not apply to FSDP, whose
data-parallel compute is replicated, not distributed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import get_vit_config
from repro.core.scaling import ScalingSeries, run_strategy_grid
from repro.core.sharding import ShardingStrategy, parse_strategy
from repro.experiments.report import render_kv, render_series
from repro.hardware.frontier import frontier_machine
from repro.hardware.power import PowerTrace
from repro.perf.simulator import TrainStepSimulator
from repro.utils.units import GIB

__all__ = [
    "Fig4Result", "run_fig4", "render_fig4", "claims_fig4", "STRATEGIES_5B", "STRATEGIES_15B",
]

STRATEGIES_5B = [
    "HYBRID_2GPUs", "HYBRID_4GPUs", "HYBRID_8GPUs", "HYBRID_16GPUs",
    "FULL_SHARD", "SHARD_GRAD_OP",
]
STRATEGIES_15B = [
    "HYBRID_4GPUs", "HYBRID_8GPUs", "HYBRID_16GPUs",
    "FULL_SHARD", "SHARD_GRAD_OP",
]
#: Minimum nodes: the 5B needs >= 2 GPUs, the 15B >= 4 -> both fit on one
#: node; the paper scales from small node counts upward.
NODE_GRID_5B = [2, 4, 8, 16, 32, 64]
NODE_GRID_15B = [4, 8, 16, 32, 64]
POWER_TRACE_NODES = 32
POWER_TRACE_STRATEGIES = ["HYBRID_2GPUs", "FULL_SHARD", "SHARD_GRAD_OP"]


@dataclass
class Fig4Result:
    grid_5b: dict[str, ScalingSeries]
    grid_15b: dict[str, ScalingSeries]
    nodes_5b: list[int]
    nodes_15b: list[int]
    power_traces: dict[str, PowerTrace]
    sgo_ips_32n: float
    full_ips_32n: float

    @property
    def sgo_over_full(self) -> float:
        """Paper quotes 1509 / 1307 = 1.155 for the 5B at 32 nodes."""
        return self.sgo_ips_32n / self.full_ips_32n


def run_fig4(
    nodes_5b: list[int] | None = None, nodes_15b: list[int] | None = None
) -> Fig4Result:
    """Run the Fig. 4 grids (5B/15B), power traces, and SGO/FULL ratio."""
    n5 = nodes_5b if nodes_5b is not None else NODE_GRID_5B
    n15 = nodes_15b if nodes_15b is not None else NODE_GRID_15B
    cfg5 = get_vit_config("vit-5b")
    cfg15 = get_vit_config("vit-15b")
    grid5 = run_strategy_grid(cfg5, STRATEGIES_5B, n5)
    grid15 = run_strategy_grid(cfg15, STRATEGIES_15B, n15)

    machine = frontier_machine(POWER_TRACE_NODES)
    traces = {}
    for label in POWER_TRACE_STRATEGIES:
        strategy, shard_size = parse_strategy(label)
        sim = TrainStepSimulator(cfg5, machine, strategy, shard_size=shard_size)
        traces[label] = sim.power_trace(label=label)

    sgo = TrainStepSimulator(
        cfg5, machine, ShardingStrategy.SHARD_GRAD_OP
    ).simulate().ips
    full = TrainStepSimulator(
        cfg5, machine, ShardingStrategy.FULL_SHARD
    ).simulate().ips
    return Fig4Result(
        grid_5b=grid5,
        grid_15b=grid15,
        nodes_5b=n5,
        nodes_15b=n15,
        power_traces=traces,
        sgo_ips_32n=sgo,
        full_ips_32n=full,
    )


def render_fig4(result: Fig4Result) -> str:
    """Render Fig. 4's panels and the rocm-smi trace summary."""
    blocks = []
    for name, grid, nodes in (
        ("vit-5b", result.grid_5b, result.nodes_5b),
        ("vit-15b", result.grid_15b, result.nodes_15b),
    ):
        blocks.append(
            render_series(
                "nodes",
                nodes,
                {label: s.ips for label, s in grid.items()},
                title=f"Fig 4 [{name}]: weak scaling, local batch 32 (ips)",
            )
        )
        blocks.append(
            render_series(
                "nodes",
                nodes,
                {
                    label: [round(p.memory.total / GIB, 2) for p in s.points]
                    for label, s in grid.items()
                },
                title=f"Fig 4 [{name}]: per-GPU memory (GiB)",
                precision=2,
            )
        )
    blocks.append(
        render_kv(
            {
                label: (
                    f"power={t.mean_power:.0f} W  "
                    f"util={t.mean_utilization:.0f}%  "
                    f"mem={t.memory_bytes[0] / GIB:.1f} GiB"
                )
                for label, t in result.power_traces.items()
            },
            title=f"Fig 4 [vit-5b @ {POWER_TRACE_NODES} nodes]: rocm-smi trace summary",
        )
    )
    blocks.append(
        f"SHARD_GRAD_OP vs FULL_SHARD at {POWER_TRACE_NODES} nodes: "
        f"{result.sgo_ips_32n:.0f} vs {result.full_ips_32n:.0f} ips "
        f"(x{result.sgo_over_full:.3f}; paper: 1509 vs 1307 = x1.155)"
    )
    return "\n\n".join(blocks)


def claims_fig4(result: Fig4Result) -> list[tuple[str, bool]]:
    """Fig. 4's shapes (paper Section IV-D), at the largest node count
    unless a claim says otherwise."""
    at_scale_15b = {s: g.ips[-1] for s, g in result.grid_15b.items()}
    traces = result.power_traces
    return [
        ("vit-15b: SHARD_GRAD_OP has the highest ips",
         at_scale_15b["SHARD_GRAD_OP"] == max(at_scale_15b.values())),
        (f"vit-5b: SHARD_GRAD_OP / FULL_SHARD ips at {POWER_TRACE_NODES} nodes is "
         "between 1.02 and 1.3 (paper: 1509 / 1307 = 1.155)",
         1.02 < result.sgo_over_full < 1.3),
        ("vit-5b: HYBRID_8GPUs is faster than HYBRID_2GPUs",
         result.grid_5b["HYBRID_8GPUs"].ips[-1] > result.grid_5b["HYBRID_2GPUs"].ips[-1]),
        ("vit-15b: SHARD_GRAD_OP needs more memory than FULL_SHARD",
         result.grid_15b["SHARD_GRAD_OP"].points[-1].memory.total
         > result.grid_15b["FULL_SHARD"].points[-1].memory.total),
        ("every rocm-smi trace shows mean utilization above 90%",
         all(t.mean_utilization > 90 for t in traces.values())),
        ("SHARD_GRAD_OP draws more mean power than FULL_SHARD",
         traces["SHARD_GRAD_OP"].mean_power > traces["FULL_SHARD"].mean_power),
    ]
