"""Few-shot linear probing (the paper's 'envisioned next step').

The paper's conclusion lists few-shot adaptation as future work: do the
scale benefits persist when only K labeled examples per class are
available? This module subsamples K-shot training sets from a probe
split (class-balanced, deterministic) and runs the standard linear-probe
protocol on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.datasets import SplitDataset
from repro.eval.features import extract_features
from repro.eval.linear_probe import LinearProbeResult, check_split, probe_features
from repro.models.mae import MaskedAutoencoder

__all__ = ["FewShotResult", "few_shot_indices", "few_shot_probe"]


@dataclass
class FewShotResult:
    """Accuracy as a function of shots per class."""

    dataset: str
    model: str
    shots: list[int] = field(default_factory=list)
    top1: list[float] = field(default_factory=list)
    probes: list[LinearProbeResult] = field(default_factory=list)


def few_shot_indices(
    labels: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of a class-balanced K-shot subset of ``labels``."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    picks = []
    for c in np.unique(labels):
        pool = np.flatnonzero(labels == c)
        if len(pool) < k:
            raise ValueError(
                f"class {c} has only {len(pool)} examples, need {k} shots"
            )
        picks.append(rng.choice(pool, size=k, replace=False))
    return np.sort(np.concatenate(picks))


def few_shot_probe(
    model: MaskedAutoencoder,
    data: SplitDataset,
    shots: list[int],
    epochs: int = 30,
    seed: int = 0,
    model_name: str = "",
) -> FewShotResult:
    """Probe with K-shot training sets for each K in ``shots``.

    Features are extracted once; every K reuses them (the encoder is
    frozen, so this is exact).
    """
    if not shots:
        raise ValueError("need at least one shot count")
    check_split(len(data.train.images), data.train.labels, data.spec.n_classes, epochs)
    feats_train = extract_features(model, data.train.images)
    feats_test = extract_features(model, data.test.images)
    result = FewShotResult(dataset=data.spec.name, model=model_name)
    for k in sorted(shots):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, 40009, k]))
        )
        idx = few_shot_indices(data.train.labels, k, rng)
        probe = probe_features(
            feats_train[idx],
            data.train.labels[idx],
            feats_test,
            data.test.labels,
            n_classes=data.spec.n_classes,
            epochs=epochs,
            seed=seed,
            dataset=data.spec.name,
            model_name=model_name,
        )
        result.shots.append(k)
        result.top1.append(probe.final_top1)
        result.probes.append(probe)
    return result
