"""Segmentation probing across model scales (paper future work).

Does the scale-quality trend the paper demonstrates for classification
carry to dense prediction? Probes patch tokens of every proxy model on
the composite-scene segmentation task.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.segmentation import SegmentationDataset, build_segmentation_dataset
from repro.eval.segmentation import SegProbeResult, segmentation_probe
from repro.experiments.downstream import PretrainedModel, pretrain_suite
from repro.experiments.report import render_table

__all__ = ["SegExperiment", "run_segmentation", "render_segmentation", "claims_segmentation"]


@dataclass
class SegExperiment:
    results: dict[str, SegProbeResult]
    model_order: list[str]

    def miou(self, model: str) -> float:
        """Final mIoU for ``model``."""
        return self.results[model].final_miou


def run_segmentation(
    suite: dict[str, PretrainedModel] | None = None,
    n_train: int = 160,
    n_test: int = 80,
    img_size: int = 32,
    epochs: int = 20,
    seed: int = 0,
    train: SegmentationDataset | None = None,
    test: SegmentationDataset | None = None,
) -> SegExperiment:
    """Probe every suite model on the segmentation task."""
    if suite is None:
        suite = pretrain_suite()
    if train is None:
        train = build_segmentation_dataset(
            n_images=n_train, img_size=img_size, seed=seed
        )
    if test is None:
        test = build_segmentation_dataset(
            n_images=n_test, img_size=img_size, seed=seed + 1
        )
    results = {
        name: segmentation_probe(
            pm.model, train, test, epochs=epochs, seed=seed,
            model_name=pm.paper_name,
        )
        for name, pm in suite.items()
    }
    return SegExperiment(results=results, model_order=list(suite))


def render_segmentation(exp: SegExperiment) -> str:
    """Render the segmentation experiment as a text table."""
    body = render_table(
        ["model", "mIoU (%)", "patch acc (%)"],
        [
            [
                m,
                round(100 * exp.results[m].final_miou, 1),
                round(100 * exp.results[m].final_patch_acc, 1),
            ]
            for m in exp.model_order
        ],
        title="Segmentation probing (frozen patch tokens, linear head)",
        precision=1,
    )
    return (
        f"{body}\n(paper future work: dense prediction across model scales)"
    )


def claims_segmentation(exp: SegExperiment) -> list[tuple[str, bool]]:
    """The scale-quality trend carries to dense prediction."""
    mious = [exp.miou(m) for m in exp.model_order]
    return [
        ("mIoU never falls with model size (1e-9 slack)",
         all(a <= b + 1e-9 for a, b in zip(mious, mious[1:]))),
        ("the largest model's mIoU beats the smallest's by more than 1 point",
         mious[-1] > mious[0] + 0.01),
    ]
