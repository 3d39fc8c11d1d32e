"""Fig. 6 — probe top-1/top-5 accuracy vs probing epoch.

Runs the same probes as Table III but reports the full per-epoch curves
for every (model, dataset) pair.

Expected shapes (paper Section V-C): the size ordering in top-1 is
already visible early in probing for the shifted-domain datasets
(UCM/AID/NWPU analogues); top-5 improves more slowly; the MillionAID
probe — whose samples share the pretraining distribution — separates
later in training.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.linear_probe import LinearProbeResult
from repro.experiments.downstream import DEFAULT_CACHE_DIR, DownstreamRecipe, pretrain_suite
from repro.experiments.report import render_series
from repro.experiments.table3 import PROBE_EPOCHS, build_probe_datasets, probe_suite

__all__ = ["Fig6Result", "run_fig6", "render_fig6", "claims_fig6"]


@dataclass
class Fig6Result:
    probes: dict[tuple[str, str], LinearProbeResult]
    model_order: list[str]
    datasets: list[str]
    epochs: int

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


def run_fig6(
    recipe: DownstreamRecipe | None = None,
    epochs: int = PROBE_EPOCHS,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
) -> Fig6Result:
    """Probe the suite and collect per-epoch accuracy curves."""
    recipe = recipe if recipe is not None else DownstreamRecipe()
    suite = pretrain_suite(recipe, cache_dir)
    datasets = build_probe_datasets(img_size=recipe.img_size, seed=recipe.seed)
    probes = probe_suite(suite, datasets, epochs=epochs, seed=recipe.seed)
    return Fig6Result(
        probes=probes,
        model_order=list(recipe.model_names),
        datasets=list(datasets),
        epochs=epochs,
    )


def render_fig6(result: Fig6Result) -> str:
    """Render Fig. 6's per-dataset accuracy-vs-epoch tables."""
    blocks = []
    epochs = list(range(1, result.epochs + 1))
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


def claims_fig6(result: Fig6Result) -> list[tuple[str, bool]]:
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
