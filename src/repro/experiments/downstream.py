"""Shared downstream pipeline: pretrain the proxy suite once, probe many.

Figures 5/6 and Table III all consume the same four MAE-pretrained proxy
models ("proxy-base/huge/1b/3b" standing in for ViT-Base/Huge/1B/3B; see
DESIGN.md). This module pretrains them with one shared recipe —
hyper-parameters identical across sizes, as the paper requires for a
fair scale comparison — and caches checkpoints + loss histories on disk
so every experiment run reuses them.

Recipe (the proxy-scale analogue of the paper's Section V-B settings):
AdamW with cosine schedule and 10% warmup, global batch 64, 75% mask
ratio, per-patch-normalized MSE, on the MillionAID-analogue corpus.
The base LR (1e-3) is the paper's 1.5e-4 scaled for the tiny widths;
it is the only knob that differs from the paper's absolute values and
it is shared by all four models.
"""

from __future__ import annotations

import logging
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.comm.world import World
from repro.core.checkpoints import checkpoint_exists, load_checkpoint, save_checkpoint
from repro.core.config import PROXY_VARIANTS, get_mae_config
from repro.core.engine import make_engine
from repro.core.trainer import MAEPretrainer, Pretrainer
from repro.data.datasets import build_pretraining_corpus
from repro.data.transforms import normalize_images
from repro.models.mae import MaskedAutoencoder
from repro.models.module import Module
from repro.optim.adamw import AdamW

__all__ = ["DownstreamRecipe", "PretrainedModel", "pretrain_suite", "DEFAULT_CACHE_DIR"]

logger = logging.getLogger("repro.experiments.downstream")

DEFAULT_CACHE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(__file__)))),
    ".pretrain_cache",
)

#: Mapping from proxy names to the paper model each stands in for.
PAPER_NAME = {
    "proxy-base": "ViT-Base",
    "proxy-huge": "ViT-Huge",
    "proxy-1b": "ViT-1B",
    "proxy-3b": "ViT-3B",
}


@dataclass(frozen=True)
class DownstreamRecipe:
    """Everything that defines one pretraining run of the suite."""

    corpus_images: int = 2048
    img_size: int = 32
    global_batch: int = 64
    steps: int = 800
    base_lr: float = 1e-3
    seed: int = 0
    model_names: tuple[str, ...] = tuple(PROXY_VARIANTS)

    def cache_key(self, model_name: str) -> str:
        """Checkpoint-cache key encoding every recipe field."""
        return (
            f"{model_name}-c{self.corpus_images}-i{self.img_size}"
            f"-b{self.global_batch}-s{self.steps}-lr{self.base_lr}-seed{self.seed}"
        )


@dataclass
class PretrainedModel:
    """One pretrained proxy model plus its training record."""

    name: str
    model: MaskedAutoencoder
    losses: list[float] = field(default_factory=list)
    steps_per_epoch: int = 0

    @property
    def paper_name(self) -> str:
        """The paper model this proxy stands in for."""
        return PAPER_NAME.get(self.name, self.name)


def pretrain_or_load(
    model: Module,
    pretrainer: type[Pretrainer],
    recipe: DownstreamRecipe,
    cache_dir: str | None,
    key: str,
    verbose: bool = True,
) -> dict:
    """Load ``model`` from checkpoint ``key`` under ``cache_dir``, or
    pretrain it with ``recipe`` (one no-shard rank, AdamW) and save it
    there; ``cache_dir=None`` always pretrains and saves nothing. Returns
    the checkpoint metadata: the loss history and steps per epoch of the
    run that produced the weights."""
    path = os.path.join(cache_dir, key) if cache_dir else None
    if path and checkpoint_exists(path):
        if verbose:
            logger.info("loaded cached %s", key)
        return load_checkpoint(model, path)
    if verbose:
        logger.info("pretraining %s (%d steps)...", key, recipe.steps)
    corpus = build_pretraining_corpus(
        n_images=recipe.corpus_images, img_size=recipe.img_size, seed=recipe.seed
    )
    engine = make_engine(
        model,
        "no_shard",
        world=World(1, ranks_per_node=1),
        optimizer_factory=lambda params: AdamW(params, lr=recipe.base_lr),
    )
    trainer = pretrainer(
        engine, normalize_images(corpus.images), global_batch=recipe.global_batch, seed=recipe.seed
    )
    meta = {
        "losses": trainer.run(recipe.steps).losses,
        "steps_per_epoch": trainer.steps_per_epoch,
        "recipe": {k: v for k, v in asdict(recipe).items() if k != "model_names"},
    }
    if path:
        save_checkpoint(model, path, meta=meta)
    return meta


def pretrain_suite(
    recipe: DownstreamRecipe | None = None,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
    verbose: bool = True,
) -> dict[str, PretrainedModel]:
    """Pretrain (or load from ``cache_dir``; ``None``: no cache) the proxy suite."""
    recipe = recipe if recipe is not None else DownstreamRecipe()
    out: dict[str, PretrainedModel] = {}
    for name in recipe.model_names:
        model = MaskedAutoencoder(get_mae_config(name), rng=np.random.default_rng(recipe.seed + 1))
        meta = pretrain_or_load(
            model, MAEPretrainer, recipe, cache_dir, recipe.cache_key(name), verbose
        )
        out[name] = PretrainedModel(
            name=name,
            model=model,
            losses=list(meta["losses"]),
            steps_per_epoch=int(meta["steps_per_epoch"]),
        )
    return out
