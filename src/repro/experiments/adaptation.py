"""The downstream-adaptation spectrum (paper Section II made concrete).

For one dataset, compares the adaptation configurations the paper
describes — supervised from scratch, linear probing, partial fine-tuning
(backbone half frozen), and full fine-tuning — on MAE-pretrained
encoders of two sizes. Expected orderings (the premise of the whole FM
program): pretraining beats from-scratch at these label budgets, and
fine-tuning beats probing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.datasets import SplitDataset
from repro.eval.finetune import FinetuneResult, finetune
from repro.eval.linear_probe import LinearProbeResult, linear_probe
from repro.experiments.downstream import PretrainedModel, pretrain_suite
from repro.experiments.report import render_table
from repro.experiments.table3 import build_probe_datasets

__all__ = ["AdaptationResult", "run_adaptation", "render_adaptation", "claims_adaptation"]

DEFAULT_MODELS = ("proxy-base", "proxy-3b")
DEFAULT_DATASET = "ucm"


@dataclass
class AdaptationResult:
    dataset: str
    rows: dict[tuple[str, str], float]  # (model, protocol) -> top-1
    protocols: list[str]
    models: list[str]
    probe_detail: dict[str, LinearProbeResult]
    finetune_detail: dict[tuple[str, str], FinetuneResult]

    def top1(self, model: str, protocol: str) -> float:
        """Top-1 accuracy of (model, protocol)."""
        return self.rows[(model, protocol)]


def run_adaptation(
    suite: dict[str, PretrainedModel] | None = None,
    dataset: str = DEFAULT_DATASET,
    models: tuple[str, ...] = DEFAULT_MODELS,
    epochs: int = 10,
    probe_epochs: int = 30,
    seed: int = 0,
    data: SplitDataset | None = None,
) -> AdaptationResult:
    """Run every adaptation protocol for each model on one dataset."""
    if suite is None:
        suite = pretrain_suite()
    if data is None:
        data = build_probe_datasets(seed=seed)[dataset]
    protocols = ["scratch", "probe", "finetune-half", "finetune-full"]
    rows: dict[tuple[str, str], float] = {}
    probe_detail: dict[str, LinearProbeResult] = {}
    ft_detail: dict[tuple[str, str], FinetuneResult] = {}
    for name in models:
        pm = suite[name]
        depth = pm.model.cfg.encoder.depth
        scratch = finetune(
            pm.model, data, epochs=epochs, from_scratch=True, seed=seed,
            model_name=pm.paper_name,
        )
        ft_detail[(name, "scratch")] = scratch
        rows[(name, "scratch")] = scratch.final_top1

        probe = linear_probe(
            pm.model, data, epochs=probe_epochs, seed=seed,
            model_name=pm.paper_name,
        )
        probe_detail[name] = probe
        rows[(name, "probe")] = probe.final_top1

        half = finetune(
            pm.model, data, epochs=epochs, freeze_blocks=depth // 2,
            seed=seed, model_name=pm.paper_name,
        )
        ft_detail[(name, "finetune-half")] = half
        rows[(name, "finetune-half")] = half.final_top1

        full = finetune(
            pm.model, data, epochs=epochs, seed=seed, model_name=pm.paper_name
        )
        ft_detail[(name, "finetune-full")] = full
        rows[(name, "finetune-full")] = full.final_top1
    return AdaptationResult(
        dataset=dataset,
        rows=rows,
        protocols=protocols,
        models=list(models),
        probe_detail=probe_detail,
        finetune_detail=ft_detail,
    )


def render_adaptation(result: AdaptationResult) -> str:
    """Render the adaptation spectrum as a text table."""
    body = render_table(
        ["model", *result.protocols],
        [
            [m] + [round(100 * result.top1(m, p), 1) for p in result.protocols]
            for m in result.models
        ],
        title=(
            f"Adaptation spectrum on [{result.dataset}]: top-1 (%) by protocol"
        ),
        precision=1,
    )
    return (
        f"{body}\n(the paper's Section II spectrum: scratch < probe <= "
        "fine-tuning, with pretrained initialization carrying the gain)"
    )


def claims_adaptation(result: AdaptationResult) -> list[tuple[str, bool]]:
    """Pretraining pays, fine-tuning keeps up with probing, scale helps."""
    claims = []
    for model in result.models:
        full = result.top1(model, "finetune-full")
        claims += [
            (f"{model}: full fine-tuning beats training from scratch",
             full > result.top1(model, "scratch")),
            (f"{model}: full fine-tuning is at most 2 points below the linear probe",
             full >= result.top1(model, "probe") - 0.02),
        ]
    return claims + [
        (f"{protocol}: proxy-3b beats proxy-base",
         result.top1("proxy-3b", protocol) > result.top1("proxy-base", protocol))
        for protocol in result.protocols
    ]
