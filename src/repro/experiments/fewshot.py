"""Few-shot probing across model scales (paper future work, implemented).

The paper's conclusion proposes studying "configurations such as
few-shot learning to unveil potential properties emerging as we scale".
This experiment runs K-shot linear probes (K in {1, 2, 5, 10}) for every
proxy model on one shifted-domain dataset, asking whether the
scale-quality trend survives extreme label scarcity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.datasets import SplitDataset
from repro.eval.few_shot import FewShotResult, few_shot_probe
from repro.experiments.downstream import (
    DownstreamRecipe,
    PretrainedModel,
    pretrain_suite,
)
from repro.experiments.report import render_series
from repro.experiments.table3 import build_probe_datasets

__all__ = [
    "FewShotExperiment", "run_fewshot", "render_fewshot", "claims_fewshot", "DEFAULT_SHOTS",
]

DEFAULT_SHOTS = [1, 2, 5, 10]
DEFAULT_DATASET = "aid"


@dataclass
class FewShotExperiment:
    dataset: str
    shots: list[int]
    results: dict[str, FewShotResult]  # model name -> per-K accuracies

    def top1(self, model: str) -> list[float]:
        """Per-shot-count top-1 accuracies for ``model``."""
        return self.results[model].top1


def run_fewshot(
    suite: dict[str, PretrainedModel] | None = None,
    dataset: str = DEFAULT_DATASET,
    shots: list[int] | None = None,
    recipe: DownstreamRecipe | None = None,
    epochs: int = 20,
    seed: int = 0,
    data: SplitDataset | None = None,
) -> FewShotExperiment:
    """Run K-shot probes for every suite model on one dataset."""
    shots = shots if shots is not None else list(DEFAULT_SHOTS)
    if suite is None:
        suite = pretrain_suite(recipe)
    if data is None:
        data = build_probe_datasets(seed=seed)[dataset]
    results = {
        name: few_shot_probe(
            pm.model, data, shots=shots, epochs=epochs, seed=seed,
            model_name=pm.paper_name,
        )
        for name, pm in suite.items()
    }
    return FewShotExperiment(dataset=dataset, shots=sorted(shots), results=results)


def render_fewshot(exp: FewShotExperiment) -> str:
    """Render the few-shot experiment as a text table."""
    body = render_series(
        "shots/class",
        exp.shots,
        {m: [round(100 * v, 1) for v in r.top1] for m, r in exp.results.items()},
        title=f"Few-shot probing on [{exp.dataset}]: top-1 (%) vs shots",
    )
    return (
        f"{body}\n(extension of the paper's future-work direction: does "
        "the scale benefit survive label scarcity?)"
    )


def claims_fewshot(exp: FewShotExperiment) -> list[tuple[str, bool]]:
    """More shots help every model, and scale still helps at the most shots."""
    most, fewest = exp.shots[-1], exp.shots[0]
    return [
        (f"{model}: the {most}-shot probe beats the {fewest}-shot probe",
         result.top1[-1] > result.top1[0])
        for model, result in exp.results.items()
    ] + [
        (f"at {most} shots proxy-3b beats proxy-base",
         exp.top1("proxy-3b")[-1] > exp.top1("proxy-base")[-1]),
    ]
