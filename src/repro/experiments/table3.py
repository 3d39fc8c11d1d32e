"""Table III and Fig. 6 — linear-probe accuracy across datasets and sizes.

Probes the MAE-pretrained proxy suite on all four dataset analogues with
the paper's protocol (LARS, base LR 0.1, no weight decay, identical
hyper-parameters everywhere), plus the paper's extra row: the Base model
pretrained 4x longer (the "400 epochs vs 100 epochs" comparison). One
run serves both artifacts: Table III reads each probe's final top-1,
Fig. 6 its per-epoch top-1 / top-5 curves.

Expected shapes (paper Section V-C):

- top-1 improves monotonically with model scale on every dataset;
- the Base->3B gain is large (paper: >30 points; proxy scale: >12);
- Base pretrained 4x longer beats Base at 1x on every dataset;
- (Fig. 6) the size ordering in top-1 is visible early in probing for
  the shifted-domain datasets (UCM/AID/NWPU analogues), top-5 improves
  more slowly, and the MillionAID probe, whose samples share the
  pretraining distribution, separates later.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.data.datasets import DATASET_SPECS, SplitDataset, build_dataset
from repro.data.transforms import normalize_images
from repro.eval.linear_probe import LinearProbeResult, linear_probe
from repro.experiments.downstream import (
    DEFAULT_CACHE_DIR,
    DownstreamRecipe,
    PretrainedModel,
    pretrain_suite,
)
from repro.experiments.report import render_series, render_table

__all__ = [
    "Table3Result",
    "run_table3",
    "render_table3",
    "claims_table3",
    "render_fig6",
    "claims_fig6",
    "build_probe_datasets",
    "probe_suite",
    "PROBE_EPOCHS",
]

PROBE_EPOCHS = 30
DATASETS = list(DATASET_SPECS)
LONG_PRETRAIN_FACTOR = 4  # the paper's 400-vs-100-epoch Base comparison


def build_probe_datasets(
    img_size: int = 32, seed: int = 0
) -> dict[str, SplitDataset]:
    """All four probe datasets, channel-normalized."""
    out = {}
    for name in DATASETS:
        data = build_dataset(name, img_size=img_size, seed=seed)
        data.train.images = normalize_images(data.train.images)
        data.test.images = normalize_images(data.test.images)
        out[name] = data
    return out


def probe_suite(
    suite: dict[str, PretrainedModel],
    datasets: dict[str, SplitDataset],
    epochs: int = PROBE_EPOCHS,
    seed: int = 0,
) -> dict[tuple[str, str], LinearProbeResult]:
    """Probe every (model, dataset) pair; keys are (model, dataset) names."""
    results = {}
    for model_name, pm in suite.items():
        for ds_name, data in datasets.items():
            results[(model_name, ds_name)] = linear_probe(
                pm.model,
                data,
                epochs=epochs,
                seed=seed,
                model_name=pm.paper_name,
            )
    return results


@dataclass
class Table3Result:
    probes: dict[tuple[str, str], LinearProbeResult]
    long_base: dict[tuple[str, str], LinearProbeResult]
    model_order: list[str]
    datasets: list[str]

    def top1(self, model: str, dataset: str) -> float:
        """Final probe top-1 of (model, dataset)."""
        return self.probes[(model, dataset)].final_top1

    def base_to_largest_gain(self, dataset: str) -> float:
        """Top-1 gain from the smallest to the largest model on ``dataset``."""
        return self.top1(self.model_order[-1], dataset) - self.top1(
            self.model_order[0], dataset
        )

    def curve(self, model: str, dataset: str, k: int = 1) -> list[float]:
        """Per-epoch top-k accuracies of (model, dataset)."""
        r = self.probes[(model, dataset)]
        return r.top1 if k == 1 else r.top5

    def epoch_of_separation(self, dataset: str) -> int | None:
        """First probe epoch (1-based, as the rendered tables count) from
        which the largest model's top-1 leads the smallest's to the end
        (None if never)."""
        small = self.curve(self.model_order[0], dataset)
        large = self.curve(self.model_order[-1], dataset)
        for e in range(len(small)):
            if all(lg > sm for lg, sm in zip(large[e:], small[e:])):
                return e + 1
        return None


def run_table3(
    recipe: DownstreamRecipe | None = None,
    epochs: int = PROBE_EPOCHS,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
) -> Table3Result:
    """Pretrain/load the suite (plus the 4x-pretrained Base) and probe everything."""
    recipe = recipe if recipe is not None else DownstreamRecipe()
    suite = pretrain_suite(recipe, cache_dir)
    datasets = build_probe_datasets(img_size=recipe.img_size, seed=recipe.seed)
    probes = probe_suite(suite, datasets, epochs=epochs, seed=recipe.seed)
    # The "pretrained 4x longer" Base row.
    long_recipe = replace(
        recipe,
        steps=recipe.steps * LONG_PRETRAIN_FACTOR,
        model_names=("proxy-base",),
    )
    long_suite = pretrain_suite(long_recipe, cache_dir)
    long_probes = probe_suite(long_suite, datasets, epochs=epochs, seed=recipe.seed)
    return Table3Result(
        probes=probes,
        long_base=long_probes,
        model_order=list(recipe.model_names),
        datasets=list(datasets),
    )


def render_table3(result: Table3Result) -> str:
    """Render Table III plus the base-to-largest gains."""
    rows = []
    long_row = ["proxy-base (4x pretrain)"]
    for ds in result.datasets:
        long_row.append(round(100 * result.long_base[("proxy-base", ds)].final_top1, 2))
    rows.append(long_row)
    for model in result.model_order:
        rows.append(
            [model]
            + [round(100 * result.top1(model, ds), 2) for ds in result.datasets]
        )
    body = render_table(
        headers=["model", *result.datasets],
        rows=rows,
        title="Table III: linear-probe top-1 accuracy (%)",
        precision=2,
    )
    gains = ", ".join(
        f"{ds}=+{100 * result.base_to_largest_gain(ds):.1f}"
        for ds in result.datasets
    )
    return (
        f"{body}\nbase -> largest gain (points): {gains}\n"
        "(paper: >30-point gains from ViT-Base to ViT-3B on all datasets)"
    )


def claims_table3(result: Table3Result) -> list[tuple[str, bool]]:
    """Table III's shapes: top-1 grows with scale and with longer
    pretraining (means are over datasets)."""
    smallest, largest = result.model_order[0], result.model_order[-1]
    datasets = result.datasets
    means = [np.mean([result.top1(m, ds) for ds in datasets]) for m in result.model_order]
    long_mean = np.mean([result.long_base[("proxy-base", ds)].final_top1 for ds in datasets])
    return [
        (f"[{ds}] the largest model's top-1 beats the smallest's",
         result.top1(largest, ds) > result.top1(smallest, ds))
        for ds in datasets
    ] + [
        ("mean top-1 rises strictly with model size",
         all(a < b for a, b in zip(means, means[1:]))),
        ("the smallest-to-largest mean top-1 gain exceeds 8 points",
         means[-1] - means[0] > 0.08),
        (f"proxy-base pretrained {LONG_PRETRAIN_FACTOR}x longer beats proxy-base on "
         "mean top-1", long_mean > means[0]),
    ]


def render_fig6(result: Table3Result) -> str:
    """Render Fig. 6's per-dataset accuracy-vs-epoch tables."""
    blocks = []
    n_epochs = len(result.curve(result.model_order[0], result.datasets[0]))
    epochs = list(range(1, n_epochs + 1))
    for ds in result.datasets:
        for k in (1, 5):
            series = {
                m: [round(100 * v, 1) for v in result.curve(m, ds, k)]
                for m in result.model_order
            }
            blocks.append(
                render_series(
                    "epoch",
                    epochs,
                    series,
                    title=f"Fig 6 [{ds}] top-{k} accuracy (%) vs probe epoch",
                )
            )
        sep = result.epoch_of_separation(ds)
        blocks.append(
            f"[{ds}] smallest-vs-largest separation persists from epoch: {sep}"
        )
    return "\n\n".join(blocks)


def claims_fig6(result: Table3Result) -> list[tuple[str, bool]]:
    """Fig. 6's shapes per dataset, smallest vs largest model."""
    smallest, largest = result.model_order[0], result.model_order[-1]
    claims = []
    for ds in result.datasets:
        small, large = result.curve(smallest, ds), result.curve(largest, ds)
        top5 = result.curve(largest, ds, k=5)
        claims += [
            (f"[{ds}] the largest model ends ahead of the smallest in top-1",
             large[-1] > small[-1]),
            (f"[{ds}] from some probe epoch on, the largest model's top-1 leads the "
             "smallest's to the end", result.epoch_of_separation(ds) is not None),
            (f"[{ds}] the largest model's top-5 is never below its top-1",
             all(b >= a for a, b in zip(large, top5))),
        ]
    return claims
