"""Table II — dataset inventory (paper originals vs our analogues).

Builds every dataset and verifies/reports the realized sizes, class
counts, and training ratios against both the scaled recipe and the
paper's originals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.datasets import DATASET_SPECS, SplitDataset, build_dataset
from repro.experiments.report import render_table

__all__ = ["Table2Row", "run_table2", "render_table2", "claims_table2"]


@dataclass(frozen=True)
class Table2Row:
    name: str
    classes: int
    train: int
    test: int
    train_ratio: float
    paper_classes: int
    paper_train: int
    paper_test: int
    paper_train_ratio: float


def run_table2(img_size: int = 32, seed: int = 0) -> list[Table2Row]:
    """Build every probe dataset and collect its realized sizes."""
    rows = []
    for name, spec in DATASET_SPECS.items():
        data: SplitDataset = build_dataset(name, img_size=img_size, seed=seed)
        rows.append(
            Table2Row(
                name=name,
                classes=data.train.n_classes,
                train=len(data.train),
                test=len(data.test),
                train_ratio=data.spec.train_ratio,
                paper_classes=spec.paper_classes,
                paper_train=spec.paper_train,
                paper_test=spec.paper_test,
                paper_train_ratio=spec.paper_train_ratio,
            )
        )
    return rows


def render_table2(rows: list[Table2Row]) -> str:
    """Render Table II (analogue vs paper splits)."""
    return render_table(
        headers=[
            "dataset", "cls", "train", "test", "TR%",
            "paper cls", "paper train", "paper test", "paper TR%",
        ],
        rows=[
            [
                r.name, r.classes, r.train, r.test, round(100 * r.train_ratio, 1),
                r.paper_classes, r.paper_train, r.paper_test,
                round(100 * r.paper_train_ratio, 1),
            ]
            for r in rows
        ],
        title="Table II: probe datasets (scaled analogues; TR preserved)",
        precision=1,
    )


def claims_table2(rows: list[Table2Row]) -> list[tuple[str, bool]]:
    """Table II's shapes: the paper's training ratios are kept."""
    names = {"millionaid", "ucm", "aid", "nwpu"}
    return [
        (f"{r.name}: training ratio within 0.005 of the paper's",
         abs(r.train_ratio - r.paper_train_ratio) <= 0.005)
        for r in rows
    ] + [("the datasets are millionaid, ucm, aid and nwpu", {r.name for r in rows} == names)]
