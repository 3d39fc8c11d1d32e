"""Table I — ViT architecture inventory and parameter accounting.

Renders the paper's Table I next to our first-principles parameter
counts. Every variant matches the paper within ~2% except ViT-5B, whose
published (width=1792, depth=56, mlp=15360) combination yields ~3.8B
parameters by any standard transformer accounting — an internal
inconsistency of the paper that this table surfaces explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import VIT_VARIANTS, ViTConfig, count_vit_params
from repro.experiments.report import render_table

__all__ = ["Table1Row", "run_table1", "render_table1", "claims_table1"]


@dataclass(frozen=True)
class Table1Row:
    cfg: ViTConfig
    computed_params_m: float

    @property
    def paper_params_m(self) -> float:
        """Parameter count (millions) the paper reports."""
        assert self.cfg.paper_params_m is not None
        return self.cfg.paper_params_m

    @property
    def relative_error(self) -> float:
        """Computed/paper parameter-count relative error."""
        return self.computed_params_m / self.paper_params_m - 1.0


def run_table1() -> list[Table1Row]:
    """Compute parameter counts for every Table I variant."""
    return [
        Table1Row(cfg=cfg, computed_params_m=count_vit_params(cfg) / 1e6)
        for cfg in VIT_VARIANTS.values()
    ]


def render_table1(rows: list[Table1Row]) -> str:
    """Render Table I with the paper-vs-computed comparison."""
    table = render_table(
        headers=[
            "Model", "Width", "Depth", "MLP", "Heads",
            "Paper [M]", "Computed [M]", "err %",
        ],
        rows=[
            [
                r.cfg.name, r.cfg.width, r.cfg.depth, r.cfg.mlp, r.cfg.heads,
                r.paper_params_m, round(r.computed_params_m, 1),
                round(100 * r.relative_error, 1),
            ]
            for r in rows
        ],
        title="Table I: ViT variants (paper-reported vs computed parameters)",
        precision=1,
    )
    note = (
        "note: vit-5b's published dimensions are internally inconsistent "
        "(see DESIGN.md); all other variants match within ~2%."
    )
    return f"{table}\n{note}"


def claims_table1(rows: list[Table1Row]) -> list[tuple[str, bool]]:
    """Table I's shapes: counts match the paper everywhere but the 5B."""
    by_name = {r.cfg.name: r for r in rows}
    return [
        (f"{name}: computed parameters within 2% of the paper's", abs(r.relative_error) < 0.02)
        for name, r in by_name.items() if name != "vit-5b"
    ] + [
        ("vit-15b: more than 14,000 M computed parameters",
         by_name["vit-15b"].computed_params_m > 14_000),
    ]
