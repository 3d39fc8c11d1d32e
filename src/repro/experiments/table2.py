"""Table II — dataset inventory (paper originals vs our analogues).

Reports every probe dataset's class count, split sizes and training
ratio from its recipe in :data:`~repro.data.datasets.DATASET_SPECS`
beside the paper's originals (``build_dataset`` realizes exactly these
sizes; tier-1 checks one).
"""

from __future__ import annotations

from repro.data.datasets import DATASET_SPECS, DatasetSpec
from repro.experiments.report import render_table

__all__ = ["run_table2", "render_table2", "claims_table2"]


def run_table2() -> list[DatasetSpec]:
    """Every probe dataset's recipe, in table order."""
    return list(DATASET_SPECS.values())


def render_table2(rows: list[DatasetSpec]) -> str:
    """Render Table II (analogue vs paper splits)."""
    return render_table(
        headers=[
            "dataset", "cls", "train", "test", "TR%",
            "paper cls", "paper train", "paper test", "paper TR%",
        ],
        rows=[
            [
                r.name, r.n_classes, r.n_train, r.n_test, round(100 * r.train_ratio, 1),
                r.paper_classes, r.paper_train, r.paper_test,
                round(100 * r.paper_train_ratio, 1),
            ]
            for r in rows
        ],
        title="Table II: probe datasets (scaled analogues; TR preserved)",
        precision=1,
    )


def claims_table2(rows: list[DatasetSpec]) -> list[tuple[str, bool]]:
    """Table II's shapes: the paper's training ratios are kept."""
    names = {"millionaid", "ucm", "aid", "nwpu"}
    return [
        (f"{r.name}: training ratio within 0.005 of the paper's",
         abs(r.train_ratio - r.paper_train_ratio) <= 0.005)
        for r in rows
    ] + [("the datasets are millionaid, ucm, aid and nwpu", {r.name for r in rows} == names)]
