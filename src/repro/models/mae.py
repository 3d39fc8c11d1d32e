"""Masked Autoencoder (He et al.) for ViT pretraining.

Mirrors the official MAE implementation the paper builds on:

- linear patch embedding over *all* patches, fixed sin-cos positions;
- per-sample random masking by argsort of a noise vector (75% default);
- encoder sees only the visible patches plus a class token;
- lightweight decoder (8 blocks / width 512 at paper scale) receives the
  encoded visible tokens plus a learned mask token per masked position,
  un-shuffled back to the original patch order;
- MSE reconstruction loss on masked patches only, with per-patch
  pixel normalization (``norm_pix_loss``).

The masking noise is an explicit input so the distributed engines can
make masking a function of the *global sample index*: sharded and
unsharded training then produce bit-identical losses (tested).

Pipeline decomposition: the forward pass is expressed as a sequence of
*ops* — ``[head] + enc_blocks + [bridge] + dec_blocks + [tail]`` — and
``forward``/``backward`` simply run that sequence forward/reversed.
The ops are the single source of truth, so a layer-partitioned pipeline
engine (:mod:`repro.mesh.pipeline`) running contiguous op chunks as
stages is bit-identical to the monolithic pass *by construction*.
Per-microbatch state (masking indices, patch targets, the loss
residual) lives in an explicit ``ctx`` dict threaded through the ops,
never in module attributes; each op also names the layers it runs
(``modules()``), whose activation caches the pipeline engine stashes
per microbatch, so multiple microbatches can be in flight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MAEConfig
from repro.models import init
from repro.models.blocks import TransformerBlock
from repro.models.layers import LayerNorm, Linear
from repro.models.module import DEFAULT_DTYPE, Module, Parameter
from repro.models.patch import patchify, unpatchify
from repro.models.posembed import sincos_2d

__all__ = ["MaskedAutoencoder", "MAEOutput"]


@dataclass
class MAEOutput:
    """Result of one MAE forward pass."""

    loss: float
    pred: np.ndarray  # (B, N, patch_dim) reconstruction in patch space
    mask: np.ndarray  # (B, N) 1 where the patch was masked


class _HeadOp:
    """Patchify, embed, mask, prepend cls: ``(imgs, noise) -> (B, 1+Lv, W)``."""

    kind = "head"

    def __init__(self, model: "MaskedAutoencoder"):
        self.m = model

    def forward(self, x, ctx: dict):
        imgs, noise = x
        m = self.m
        enc = m.cfg.encoder
        b = imgs.shape[0]
        if noise is None:
            noise = m.rng.random((b, enc.n_patches))
        ids_keep, ids_shuffle, ids_restore, mask = m.random_masking_indices(noise)

        patches = patchify(imgs, enc.patch)  # (B, N, D)
        tok = m.patch_proj(patches) + m.enc_pos[None, 1:, :]
        x_vis = np.take_along_axis(tok, ids_keep[:, :, None], axis=1)

        cls = np.broadcast_to(
            m.cls_token.data + m.enc_pos[None, :1, :], (b, 1, enc.width)
        )
        ctx.update(
            b=b,
            ids_keep=ids_keep,
            ids_shuffle=ids_shuffle,
            ids_restore=ids_restore,
            mask=mask,
            patches=patches,
            tok_shape=tok.shape,
            n_vis=m.cfg.n_visible,
        )
        return np.concatenate([cls, x_vis], axis=1)  # (B, 1+Lv, W)

    def backward(self, d, ctx: dict):
        m = self.m
        enc = m.cfg.encoder
        dcls = d[:, :1, :]
        m.cls_token.accumulate(dcls.sum(axis=0, keepdims=True))
        dvis = d[:, 1:, :]
        dtok = np.zeros(ctx["tok_shape"], dtype=dvis.dtype)
        np.put_along_axis(dtok, ctx["ids_keep"][:, :, None], dvis, axis=1)
        dpatches = m.patch_proj.backward(dtok)
        return unpatchify(dpatches, enc.patch, enc.in_chans)

    def out_shape(self, batch: int) -> tuple[int, ...]:
        enc = self.m.cfg.encoder
        return (batch, 1 + self.m.cfg.n_visible, enc.width)

    def params(self) -> list[Parameter]:
        return self.m.patch_proj.parameters() + [self.m.cls_token]

    def modules(self) -> list[Module]:
        return [self.m.patch_proj]


class _BlockOp:
    """One transformer block (encoder or decoder)."""

    def __init__(self, model: "MaskedAutoencoder", blk, kind: str):
        self.m = model
        self.blk = blk
        self.kind = kind

    def forward(self, x, ctx: dict):
        return self.blk(x)

    def backward(self, d, ctx: dict):
        return self.blk.backward(d)

    def out_shape(self, batch: int) -> tuple[int, ...]:
        m = self.m
        if self.kind == "enc":
            return (batch, 1 + m.cfg.n_visible, m.cfg.encoder.width)
        return (batch, 1 + m.cfg.encoder.n_patches, m.cfg.dec_width)

    def params(self) -> list[Parameter]:
        return self.blk.parameters()

    def modules(self) -> list[Module]:
        return [self.blk]


class _BridgeOp:
    """Encoder norm, decoder embed, mask-token fill, un-shuffle, dec pos."""

    kind = "bridge"

    def __init__(self, model: "MaskedAutoencoder"):
        self.m = model

    def forward(self, x, ctx: dict):
        m = self.m
        b = ctx["b"]
        x = m.enc_norm(x)
        y = m.dec_embed(x)  # (B, 1+Lv, Wd)
        n_masked = m.cfg.n_masked
        mask_tokens = np.broadcast_to(
            m.mask_token.data, (b, n_masked, m.cfg.dec_width)
        )
        y_shuffled = np.concatenate([y[:, 1:, :], mask_tokens], axis=1)  # (B, N, Wd)
        y_unshuf = np.take_along_axis(
            y_shuffled, ctx["ids_restore"][:, :, None], axis=1
        )
        return np.concatenate([y[:, :1, :], y_unshuf], axis=1) + m.dec_pos[None]

    def backward(self, d, ctx: dict):
        m = self.m
        # dec_pos is a constant buffer: no gradient.
        dcls_dec = d[:, :1, :]
        dy_unshuf = d[:, 1:, :]
        # Inverse of the gather-with-ids_restore is gather-with-ids_shuffle.
        dy_shuffled = np.take_along_axis(
            dy_unshuf, ctx["ids_shuffle"][:, :, None], axis=1
        )
        n_vis = ctx["n_vis"]
        dy_vis = dy_shuffled[:, :n_vis, :]
        dmask_tok = dy_shuffled[:, n_vis:, :]
        m.mask_token.accumulate(dmask_tok.sum(axis=(0, 1))[None, None, :])
        dy_enc_out = np.concatenate([dcls_dec, dy_vis], axis=1)
        dx = m.dec_embed.backward(dy_enc_out)
        return m.enc_norm.backward(dx)

    def out_shape(self, batch: int) -> tuple[int, ...]:
        m = self.m
        return (batch, 1 + m.cfg.encoder.n_patches, m.cfg.dec_width)

    def params(self) -> list[Parameter]:
        m = self.m
        return (
            m.enc_norm.parameters()
            + m.dec_embed.parameters()
            + [m.mask_token]
        )

    def modules(self) -> list[Module]:
        return [self.m.enc_norm, self.m.dec_embed]


class _TailOp:
    """Decoder norm, pixel prediction, masked per-patch-normalized MSE."""

    kind = "tail"

    def __init__(self, model: "MaskedAutoencoder"):
        self.m = model

    def forward(self, x, ctx: dict):
        m = self.m
        y_full = m.dec_norm(x)
        pred = m.pred(y_full[:, 1:, :])  # (B, N, D)

        # Reconstruction target, optionally per-patch normalized.
        target = ctx["patches"]
        if m.cfg.norm_pix_loss:
            mu = target.mean(axis=-1, keepdims=True)
            var = target.var(axis=-1, keepdims=True)
            target = (target - mu) / np.sqrt(var + 1e-6)

        mask = ctx["mask"]
        diff = pred - target
        per_patch = (diff * diff).mean(axis=-1)  # (B, N)
        mask_sum = mask.sum()
        loss = float((per_patch * mask).sum() / mask_sum)
        ctx["diff"] = diff
        ctx["mask_sum"] = mask_sum
        out = MAEOutput(loss=loss, pred=pred, mask=mask)
        ctx["output"] = out
        return out

    def backward(self, d, ctx: dict):
        # ``d`` is ignored: this op owns the loss, so backward seeds it.
        m = self.m
        d_patch = m.cfg.encoder.patch_dim
        dpred = (2.0 / d_patch) * ctx["diff"] * ctx["mask"][:, :, None] / ctx["mask_sum"]
        dy_tail = m.pred.backward(dpred)  # (B, N, Wd)
        dy_full = np.concatenate(
            [np.zeros((ctx["b"], 1, m.cfg.dec_width), dtype=dy_tail.dtype), dy_tail],
            axis=1,
        )
        return m.dec_norm.backward(dy_full)

    def out_shape(self, batch: int) -> None:
        return None  # the loss: nothing crosses a stage boundary after this

    def params(self) -> list[Parameter]:
        return self.m.dec_norm.parameters() + self.m.pred.parameters()

    def modules(self) -> list[Module]:
        return [self.m.dec_norm, self.m.pred]


class MaskedAutoencoder(Module):
    _cache_attrs = ("_cache",)

    def __init__(
        self,
        cfg: MAEConfig,
        rng: np.random.Generator | None = None,
        dtype=DEFAULT_DTYPE,
        checkpoint: bool = False,
    ):
        super().__init__()
        self.cfg = cfg
        enc = cfg.encoder
        rng = rng if rng is not None else np.random.default_rng(0)
        self.rng = rng

        # Encoder.
        self.patch_proj = Linear(enc.patch_dim, enc.width, rng=rng, dtype=dtype)
        self.cls_token = Parameter(
            init.trunc_normal(rng, (1, 1, enc.width), dtype=dtype), name="cls_token"
        )
        self.enc_pos = sincos_2d(enc.width, enc.grid, cls_token=True).astype(dtype)
        self.enc_blocks = [
            TransformerBlock(
                enc.width, enc.heads, enc.mlp, rng=rng, dtype=dtype,
                checkpoint=checkpoint,
            )
            for _ in range(enc.depth)
        ]
        for i, blk in enumerate(self.enc_blocks):
            setattr(self, f"enc_block{i}", blk)
        self.enc_norm = LayerNorm(enc.width, dtype=dtype)

        # Decoder.
        self.dec_embed = Linear(enc.width, cfg.dec_width, rng=rng, dtype=dtype)
        self.mask_token = Parameter(
            init.trunc_normal(rng, (1, 1, cfg.dec_width), dtype=dtype),
            name="mask_token",
        )
        self.dec_pos = sincos_2d(cfg.dec_width, enc.grid, cls_token=True).astype(dtype)
        self.dec_blocks = [
            TransformerBlock(
                cfg.dec_width, cfg.dec_heads, 4 * cfg.dec_width, rng=rng,
                dtype=dtype, checkpoint=checkpoint,
            )
            for _ in range(cfg.dec_depth)
        ]
        for i, blk in enumerate(self.dec_blocks):
            setattr(self, f"dec_block{i}", blk)
        self.dec_norm = LayerNorm(cfg.dec_width, dtype=dtype)
        self.pred = Linear(cfg.dec_width, enc.patch_dim, rng=rng, dtype=dtype)

        # The pipeline op sequence (single source of truth for fwd/bwd).
        self._ops = (
            [_HeadOp(self)]
            + [_BlockOp(self, blk, "enc") for blk in self.enc_blocks]
            + [_BridgeOp(self)]
            + [_BlockOp(self, blk, "dec") for blk in self.dec_blocks]
            + [_TailOp(self)]
        )

        self._cache = None

    def pipeline_ops(self) -> list:
        """The forward pass as an op sequence (see module docstring).

        A pipeline engine partitions this list into contiguous stages;
        running the full list in order is exactly :meth:`forward`.
        """
        return self._ops

    # -- masking -----------------------------------------------------------

    def random_masking_indices(
        self, noise: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Derive (ids_keep, ids_shuffle, ids_restore, mask) from noise.

        ``noise`` is ``(B, N)``; patches with the smallest noise stay
        visible (the MAE reference convention).
        """
        b, n = noise.shape
        if n != self.cfg.encoder.n_patches:
            raise ValueError(
                f"noise has {n} patches, model expects {self.cfg.encoder.n_patches}"
            )
        ids_shuffle = np.argsort(noise, axis=1, kind="stable")
        ids_restore = np.argsort(ids_shuffle, axis=1, kind="stable")
        n_vis = self.cfg.n_visible
        ids_keep = ids_shuffle[:, :n_vis]
        mask = np.ones((b, n), dtype=noise.dtype)
        mask[:, :n_vis] = 0.0
        mask = np.take_along_axis(mask, ids_restore, axis=1)
        return ids_keep, ids_shuffle, ids_restore, mask

    # -- forward -----------------------------------------------------------

    def forward(self, imgs: np.ndarray, noise: np.ndarray | None = None) -> MAEOutput:
        """Masked-autoencoder forward: mask, encode visibles, decode, per-patch-normalized MSE on masked patches.

        Runs the pipeline op sequence in order with one shared per-call
        ``ctx``; the tail op returns the :class:`MAEOutput`.
        """
        ctx: dict = {}
        x = (imgs, noise)
        for op in self._ops:
            x = op.forward(x, ctx)
        self._cache = ctx
        return x

    # -- backward ----------------------------------------------------------

    def backward(self) -> np.ndarray:
        """Backprop d(loss)/d(everything); returns d(loss)/d(imgs).

        Runs the pipeline op sequence reversed (the tail op seeds the
        loss gradient).
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        ctx, self._cache = self._cache, None
        d = None
        for op in reversed(self._ops):
            d = op.backward(d, ctx)
        return d

    # -- feature extraction (for linear probing) ----------------------------

    def encode_features(self, imgs: np.ndarray) -> np.ndarray:
        """Class-token features from the *unmasked* encoder: ``(B, W)``.

        This is the representation the paper linear-probes (the MAE
        encoder applied to the full image, masking disabled).
        """
        enc = self.cfg.encoder
        b = imgs.shape[0]
        patches = patchify(imgs, enc.patch)
        x = self.patch_proj(patches) + self.enc_pos[None, 1:, :]
        cls = np.broadcast_to(
            self.cls_token.data + self.enc_pos[None, :1, :], (b, 1, enc.width)
        )
        x = np.concatenate([cls, x], axis=1)
        for blk in self.enc_blocks:
            x = blk(x)
        x = self.enc_norm(x)
        # Copy: with a workspace attached, x is a pooled buffer that the
        # next forward overwrites, and feature extraction batches calls.
        return x[:, 0, :].copy()

    def encode_patch_tokens(self, imgs: np.ndarray) -> np.ndarray:
        """Per-patch features from the unmasked encoder: ``(B, N, W)``.

        The dense counterpart of :meth:`encode_features` — used for
        patch-level downstream tasks (semantic segmentation probing).
        """
        enc = self.cfg.encoder
        b = imgs.shape[0]
        patches = patchify(imgs, enc.patch)
        x = self.patch_proj(patches) + self.enc_pos[None, 1:, :]
        cls = np.broadcast_to(
            self.cls_token.data + self.enc_pos[None, :1, :], (b, 1, enc.width)
        )
        x = np.concatenate([cls, x], axis=1)
        for blk in self.enc_blocks:
            x = blk(x)
        x = self.enc_norm(x)
        # Copy for the same buffer-reuse reason as encode_features.
        return x[:, 1:, :].copy()
