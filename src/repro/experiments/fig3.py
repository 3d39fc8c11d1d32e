"""Fig. 3 — weak scaling of the four ViT models that fit on one GPU.

For ViT-Base / Huge / 1B / 3B, sweeps DDP, NO_SHARD, HYBRID_1GPU,
HYBRID_2GPUs and FULL_SHARD over 1..64 nodes (local batch 32) and
collects per-GPU memory for the two memory panels.

Expected shapes (paper Section IV-C):

- FULL_SHARD underperforms at scale for every size, flattening earliest
  for the smallest model;
- HYBRID_1GPU, HYBRID_2GPUs and NO_SHARD all beat DDP, with the
  DDP-vs-FSDP gap growing with model size;
- HYBRID_1GPU is the best choice for every model that fits on one GPU;
- memory: DDP/NO_SHARD/HYBRID constant in node count (ViT-3B > 60 GB;
  HYBRID_2GPUs roughly half), FULL_SHARD falling with world size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ViTConfig, get_vit_config
from repro.core.scaling import ScalingSeries, run_strategy_grid
from repro.experiments.fig1 import DEFAULT_NODE_GRID
from repro.experiments.report import render_series
from repro.utils.units import GIB

__all__ = ["Fig3Result", "run_fig3", "render_fig3", "claims_fig3", "MODELS", "STRATEGIES"]

MODELS = ["vit-base", "vit-huge", "vit-1b", "vit-3b"]
STRATEGIES = ["DDP", "NO_SHARD", "HYBRID_1GPU", "HYBRID_2GPUs", "FULL_SHARD"]


@dataclass
class Fig3Result:
    node_counts: list[int]
    grids: dict[str, dict[str, ScalingSeries]]  # model -> strategy -> series

    def ips(self, model: str, strategy: str) -> list[float]:
        """Throughput series of (model, strategy)."""
        return self.grids[model][strategy].ips

    def memory_gib(self, model: str, strategy: str) -> list[float]:
        """Per-GPU memory (GiB) series of (model, strategy)."""
        return [
            p.memory.total / GIB for p in self.grids[model][strategy].points
        ]


def run_fig3(
    node_counts: list[int] | None = None, models: list[str] | None = None
) -> Fig3Result:
    """Run the Fig. 3 grids (four models x five strategies)."""
    nodes = node_counts if node_counts is not None else DEFAULT_NODE_GRID
    names = models if models is not None else MODELS
    grids = {}
    for name in names:
        cfg: ViTConfig = get_vit_config(name)
        grids[name] = run_strategy_grid(cfg, STRATEGIES, nodes)
    return Fig3Result(node_counts=nodes, grids=grids)


def render_fig3(result: Fig3Result) -> str:
    """Render Fig. 3's throughput and memory panels."""
    from repro.experiments.asciiplot import line_chart

    blocks = []
    for model, grid in result.grids.items():
        series = {label: s.ips for label, s in grid.items()}
        series["ideal(HYBRID_1GPU)"] = grid["HYBRID_1GPU"].ideal_ips()
        blocks.append(
            render_series(
                "nodes",
                result.node_counts,
                series,
                title=f"Fig 3 [{model}]: weak scaling, local batch 32 (ips)",
            )
        )
        if len(result.node_counts) >= 2:
            blocks.append(
                line_chart(
                    result.node_counts,
                    series,
                    title=f"[{model}] ips vs nodes (log-log)",
                    logx=True,
                    logy=True,
                )
            )
        mem = {
            label: [round(v, 2) for v in result.memory_gib(model, label)]
            for label in STRATEGIES
        }
        blocks.append(
            render_series(
                "nodes",
                result.node_counts,
                mem,
                title=f"Fig 3 [{model}]: per-GPU memory (GiB)",
                precision=2,
            )
        )
    return "\n\n".join(blocks)


def claims_fig3(result: Fig3Result) -> list[tuple[str, bool]]:
    """Fig. 3's shapes (paper Section IV-C), at the largest node count
    unless a memory claim says otherwise."""
    claims = []
    for model in MODELS:
        at_scale = {s: result.ips(model, s)[-1] for s in result.grids[model]}
        fsdp = {k: v for k, v in at_scale.items() if k != "DDP"}
        others = [v for k, v in at_scale.items() if k != "HYBRID_1GPU"]
        claims += [
            (f"{model}: HYBRID_1GPU has the highest ips",
             all(at_scale["HYBRID_1GPU"] > v for v in others)),
            (f"{model}: FULL_SHARD has the lowest ips of the FSDP strategies",
             at_scale["FULL_SHARD"] == min(fsdp.values())),
            (f"{model}: DDP is slower than HYBRID_1GPU",
             at_scale["DDP"] < at_scale["HYBRID_1GPU"]),
        ]
    gap = {m: result.ips(m, "HYBRID_1GPU")[-1] / result.ips(m, "DDP")[-1] for m in MODELS}
    return claims + [
        ("the HYBRID_1GPU / DDP ips ratio is larger for vit-3b than for vit-base",
         gap["vit-3b"] > gap["vit-base"]),
        ("NO_SHARD is faster than DDP at every node count",
         all(n > d for m in MODELS
             for n, d in zip(result.ips(m, "NO_SHARD"), result.ips(m, "DDP")))),
        ("vit-3b NO_SHARD needs more than 55 GiB per GPU at the smallest node count",
         result.memory_gib("vit-3b", "NO_SHARD")[0] > 55),
        ("vit-3b FULL_SHARD needs less than 10 GiB per GPU",
         result.memory_gib("vit-3b", "FULL_SHARD")[-1] < 10),
    ]
