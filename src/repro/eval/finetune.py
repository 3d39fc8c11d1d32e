"""Fine-tuning protocols (paper Section II, 'Evaluation protocols for FMs').

The paper describes the spectrum of downstream adaptation: from linear
probing (everything frozen; Section V) through partial fine-tuning
(freeze the first k blocks) to full fine-tuning, contrasted against
fully-supervised from-scratch baselines. The paper runs only linear
probing at scale; this module implements the rest of the spectrum so the
comparison can be made at proxy scale:

- :func:`vit_from_mae` — initialize a classification ViT from an
  MAE-pretrained encoder (the standard transfer step);
- :func:`finetune` — supervised training with an optional frozen prefix
  (``freeze_blocks=k`` freezes the embeddings and the first k blocks;
  ``from_scratch=True`` skips the pretrained initialization entirely,
  giving the supervised baseline).

Fine-tuning trains through the probes' loop,
:func:`repro.eval.linear_probe.fit`, not an engine: a one-rank
supervised loop with labels gains nothing from a ``World``, collectives
or a ``Pretrainer``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ViTConfig
from repro.data.datasets import SplitDataset
from repro.eval.linear_probe import check_split, fit
from repro.eval.metrics import topk_accuracy
from repro.models.mae import MaskedAutoencoder
from repro.models.vit import VisionTransformer
from repro.optim.adamw import AdamW

__all__ = ["FinetuneResult", "vit_from_mae", "finetune"]


@dataclass
class FinetuneResult:
    """Per-epoch records of one fine-tuning run."""

    dataset: str
    model: str
    freeze_blocks: int
    from_scratch: bool
    top1: list[float] = field(default_factory=list)
    top5: list[float] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)
    n_trainable: int = 0

    @property
    def final_top1(self) -> float:
        """Top-1 accuracy after the last epoch."""
        return self.top1[-1]


def vit_from_mae(
    mae: MaskedAutoencoder, n_classes: int, rng: np.random.Generator | None = None
) -> VisionTransformer:
    """Build a classifier ViT initialized from an MAE encoder.

    Copies patch embedding, class token, encoder blocks, and the final
    norm; the classification head is freshly initialized.
    """
    cfg: ViTConfig = mae.cfg.encoder
    rng = rng if rng is not None else np.random.default_rng(0)
    vit = VisionTransformer(cfg, n_classes=n_classes, rng=rng)
    mapping = {
        "patch_embed.proj.weight": "patch_proj.weight",
        "patch_embed.proj.bias": "patch_proj.bias",
        "cls_token": "cls_token",
        "norm.gamma": "enc_norm.gamma",
        "norm.beta": "enc_norm.beta",
    }
    for i in range(cfg.depth):
        for suffix in (
            "ln1.gamma", "ln1.beta", "attn.qkv.weight", "attn.qkv.bias",
            "attn.proj.weight", "attn.proj.bias", "ln2.gamma", "ln2.beta",
            "mlp.fc1.weight", "mlp.fc1.bias", "mlp.fc2.weight", "mlp.fc2.bias",
        ):
            mapping[f"block{i}.{suffix}"] = f"enc_block{i}.{suffix}"
    mae_params = dict(mae.named_parameters())
    vit_params = dict(vit.named_parameters())
    for vit_name, mae_name in mapping.items():
        vit_params[vit_name].data[...] = mae_params[mae_name].data
    return vit


def _trainable_params(vit: VisionTransformer, freeze_blocks: int):
    """Parameters updated during fine-tuning (frozen prefix excluded)."""
    depth = vit.cfg.depth
    if not 0 <= freeze_blocks <= depth:
        raise ValueError(
            f"freeze_blocks must be in [0, {depth}], got {freeze_blocks}"
        )
    frozen_prefixes = ["patch_embed.", "cls_token"] if freeze_blocks > 0 else []
    frozen_prefixes += [f"block{i}." for i in range(freeze_blocks)]
    out = []
    for name, p in vit.named_parameters():
        if any(name.startswith(pre) for pre in frozen_prefixes):
            continue
        out.append(p)
    return out


def finetune(
    source: MaskedAutoencoder | None,
    data: SplitDataset,
    epochs: int = 10,
    batch_size: int = 32,
    base_lr: float = 5e-4,
    freeze_blocks: int = 0,
    from_scratch: bool = False,
    seed: int = 0,
    model_name: str = "",
) -> FinetuneResult:
    """Fine-tune (or train from scratch) a classifier on one dataset.

    The ViT is initialized from ``source``'s encoder, or with
    ``from_scratch=True`` only shaped by its config. Returns per-epoch
    test accuracy.
    """
    check_split(len(data.train), data.train.labels, data.spec.n_classes, epochs)
    if source is None:
        raise ValueError("need a source MAE: pretrained weights, or its config if from_scratch")
    rng = np.random.default_rng(seed + 17)
    if from_scratch:
        vit = VisionTransformer(source.cfg.encoder, n_classes=data.spec.n_classes, rng=rng)
    else:
        vit = vit_from_mae(source, data.spec.n_classes, rng=rng)
    params = _trainable_params(vit, freeze_blocks)
    opt = AdamW(params, lr=base_lr, weight_decay=0.05)
    result = FinetuneResult(
        dataset=data.spec.name,
        model=model_name,
        freeze_blocks=freeze_blocks,
        from_scratch=from_scratch,
        n_trainable=sum(p.size for p in params),
    )
    test = data.test

    def evaluate(module: VisionTransformer) -> None:
        # Evaluate in minibatches to bound memory.
        logits = np.concatenate(
            [module(test.images[i : i + 128]) for i in range(0, len(test), 128)]
        )
        result.top1.append(topk_accuracy(logits, test.labels, k=1))
        result.top5.append(topk_accuracy(logits, test.labels, k=min(5, data.spec.n_classes)))

    result.train_losses = fit(
        vit, opt, data.train.images, data.train.labels, data.spec.n_classes,
        epochs, batch_size, base_lr, seed, order_salt=23, evaluate=evaluate,
    )
    return result
