"""Fig. 5 — MAE pretraining loss vs step for the four model sizes.

Pretrains (or loads) the proxy suite with identical hyper-parameters and
reports per-epoch mean losses. Expected shape: larger models reach lower
loss, separation visible through training (paper shows ViT-Huge/1B/3B
clearly below ViT-Base).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.downstream import (
    DEFAULT_CACHE_DIR,
    DownstreamRecipe,
    PretrainedModel,
    pretrain_suite,
)
from repro.experiments.report import render_series

__all__ = ["Fig5Result", "run_fig5", "render_fig5", "claims_fig5"]

#: The mid-training window the report prints and the claim reads.
MID_WINDOW = slice(20, 120)
_MID_STEPS = f"steps {MID_WINDOW.start}-{MID_WINDOW.stop - 1}"


@dataclass
class Fig5Result:
    suite: dict[str, PretrainedModel]

    def loss_curves(self, smooth: int = 10) -> dict[str, list[float]]:
        """Per-model smoothed loss (non-overlapping window means)."""
        out = {}
        for name, pm in self.suite.items():
            arr = np.asarray(pm.losses)
            n = len(arr) // smooth
            out[pm.paper_name] = [
                float(arr[i * smooth : (i + 1) * smooth].mean()) for i in range(n)
            ]
        return out

    def final_losses(self, tail: int = 20) -> dict[str, float]:
        """Mean loss over the last ``tail`` steps, per model."""
        return {
            pm.paper_name: float(np.mean(pm.losses[-tail:]))
            for pm in self.suite.values()
        }

    def early_losses(self, window: slice = MID_WINDOW) -> dict[str, float]:
        """Mean loss over a mid-training window, per model."""
        out = {}
        for pm in self.suite.values():
            segment = pm.losses[window]
            if not segment:  # short runs: fall back to the whole curve
                segment = pm.losses
            out[pm.paper_name] = float(np.mean(segment))
        return out


def run_fig5(
    recipe: DownstreamRecipe | None = None, cache_dir: str | None = DEFAULT_CACHE_DIR
) -> Fig5Result:
    """Pretrain (or load) the suite and package its loss curves."""
    return Fig5Result(suite=pretrain_suite(recipe, cache_dir))


def render_fig5(result: Fig5Result) -> str:
    """Render Fig. 5's loss table plus mid/final loss summaries."""
    curves = result.loss_curves()
    n = min(len(v) for v in curves.values())
    body = render_series(
        "window",
        list(range(n)),
        {k: v[:n] for k, v in curves.items()},
        title="Fig 5: MAE pretraining loss (10-step window means)",
        precision=4,
    )
    finals = ", ".join(f"{k}={v:.4f}" for k, v in result.final_losses().items())
    earlies = ", ".join(f"{k}={v:.4f}" for k, v in result.early_losses().items())
    return (
        f"{body}\nmid-training loss ({_MID_STEPS}): {earlies}\nfinal loss: {finals}\n"
        "(paper: larger models reach lower pretraining loss)"
    )


def claims_fig5(result: Fig5Result) -> list[tuple[str, bool]]:
    """Larger models reach lower loss (suite order is size order). The
    cosine schedule converges the tails, so the end only asks that the
    largest model is not worse than the smallest."""
    mid = list(result.early_losses().values())
    final = list(result.final_losses(tail=20).values())
    return [
        (f"mean loss over {_MID_STEPS} is non-increasing with model size",
         all(a >= b for a, b in zip(mid, mid[1:]))),
        ("the largest model's mean loss over the last 20 steps is at most the "
         "smallest's + 1e-3", final[-1] <= final[0] + 1e-3),
    ]
