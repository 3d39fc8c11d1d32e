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

Every ``(B, ·, ·)``-sized result of the ops lands in a ``_buf`` buffer (in
the current workspace lane) or an ``out=`` ufunc, and reductions keep
their operands' layout, so no bit moves (``test_steady_state.py``). With a
workspace attached, :attr:`MAEOutput.pred` is pooled until the next
forward and the image gradient ``backward`` returns until the next backward.
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


def _flat(ids: np.ndarray, n: int) -> np.ndarray:
    """Rows ``ids`` of a ``(B, n, ·)`` array as rows of its ``(B*n, ·)`` reshape."""
    return ids + np.arange(0, ids.shape[0] * n, n)[:, None]


def _gather_rows(src: np.ndarray, ids: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[b, -L:] = src[b, ids[b]]`` (``L = ids.shape[1]``; earlier slots
    get placeholder rows) by one flat-index take into contiguous ``out``;
    ``mode="raise"`` would stage ``out`` through a copy."""
    b, n, w = src.shape
    ids = np.pad(ids, ((0, 0), (out.shape[1] - ids.shape[1], 0)))
    return np.take(src.reshape(b * n, w), _flat(ids, n), axis=0, out=out, mode="clip")


def _centered_var(x: np.ndarray, xc: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """``x.var(axis=-1, keepdims=True)`` bit for bit by ``np.var``'s own
    steps, leaving ``x - mean`` in ``xc`` (``sq`` is scratch)."""
    np.subtract(x, x.mean(axis=-1, keepdims=True), out=xc)
    np.square(xc, out=sq)
    return sq.mean(axis=-1, keepdims=True)


class _HeadOp:
    """Patchify, embed, mask, prepend cls: ``(imgs, noise) -> (B, 1+Lv, W)``."""

    def __init__(self, model: "MaskedAutoencoder"):
        self.m = model

    def forward(self, x, ctx: dict):
        imgs, noise = x
        m = self.m
        b = len(imgs)
        if noise is None:
            noise = m.rng.random((b, m.cfg.encoder.n_patches))
        ids_keep, ids_shuffle, ids_restore, mask = m.random_masking_indices(noise)
        patches, out = m._embed(imgs, ids_keep)
        ctx.update(
            b=b,
            ids_keep=ids_keep,
            ids_shuffle=ids_shuffle,
            ids_restore=ids_restore,
            mask=mask,
            patches=patches,
            n_vis=m.cfg.n_visible,
        )
        return out  # (B, 1+Lv, W)

    def backward(self, d, ctx: dict):
        m = self.m
        enc = m.cfg.encoder
        (b, _, w), n = d.shape, enc.n_patches
        dcls = d[:, :1, :]
        m.cls_token.accumulate(dcls.sum(axis=0, keepdims=True))
        dtok = m._buf("dtok", (b, n, w), d.dtype)
        dtok[...] = 0
        dtok.reshape(b * n, w)[_flat(ctx["ids_keep"], n)] = d[:, 1:, :]
        dpatches = m.patch_proj.backward(dtok)
        shape = (b, enc.in_chans, enc.img_size, enc.img_size)
        dimgs = m._buf("dimgs", shape, dpatches.dtype)
        return unpatchify(dpatches, enc.patch, enc.in_chans, out=dimgs)

    def params(self) -> list[Parameter]:
        return self.m.patch_proj.parameters() + [self.m.cls_token]

    def modules(self) -> list[Module]:
        return [self.m.patch_proj]


class _BlockOp:
    """One transformer block (encoder or decoder)."""

    def __init__(self, blk):
        self.blk = blk

    def forward(self, x, ctx: dict):
        return self.blk(x)

    def backward(self, d, ctx: dict):
        return self.blk.backward(d)

    def params(self) -> list[Parameter]:
        return self.blk.parameters()

    def modules(self) -> list[Module]:
        return [self.blk]


class _BridgeOp:
    """Encoder norm, decoder embed, mask-token fill, un-shuffle, dec pos."""

    def __init__(self, model: "MaskedAutoencoder"):
        self.m = model

    def forward(self, x, ctx: dict):
        m = self.m
        n_vis, ids_restore = ctx["n_vis"], ctx["ids_restore"]
        x = m.enc_norm(x)
        y = m.dec_embed(x)  # (B, 1+Lv, Wd)
        (b, n), wd = ids_restore.shape, y.shape[-1]
        # The shuffled order (encoded visibles, then a mask token per
        # masked patch), un-shuffled by ids_restore behind the cls slot.
        shuffled = m._buf("shuffled", (b, n, wd), y.dtype)
        shuffled[:, :n_vis] = y[:, 1:]
        shuffled[:, n_vis:] = m.mask_token.data
        out = m._buf("dec_in", (b, 1 + n, wd), y.dtype)
        _gather_rows(shuffled, ids_restore, out)
        out[:, 0] = y[:, 0]
        out += m.dec_pos
        return out

    def backward(self, d, ctx: dict):
        m = self.m
        # dec_pos is a constant buffer: no gradient.
        (b, t, wd), n_vis = d.shape, ctx["n_vis"]
        # Inverse of the gather-with-ids_restore is gather-with-ids_shuffle
        # (of d's rows past its cls row).
        dy_shuffled = m._buf("dshuffled", (b, t - 1, wd), d.dtype)
        _gather_rows(d, ctx["ids_shuffle"] + 1, dy_shuffled)
        dmask_tok = dy_shuffled[:, n_vis:, :]
        m.mask_token.accumulate(dmask_tok.sum(axis=(0, 1))[None, None, :])
        dy_enc_out = m._buf("denc_out", (b, 1 + n_vis, wd), d.dtype)
        dy_enc_out[:, 0] = d[:, 0]
        dy_enc_out[:, 1:] = dy_shuffled[:, :n_vis]
        dx = m.dec_embed.backward(dy_enc_out)
        return m.enc_norm.backward(dx)

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

    def __init__(self, model: "MaskedAutoencoder"):
        self.m = model

    def forward(self, x, ctx: dict):
        m = self.m
        y_full = m.dec_norm(x)
        b, t, wd = y_full.shape
        # The patch rows, contiguous (Linear's reshape would copy them).
        y_tail = m._buf("y_tail", (b, t - 1, wd), y_full.dtype)
        y_tail[...] = y_full[:, 1:, :]
        pred = m.pred(y_tail)  # (B, N, D)

        # Reconstruction target, optionally per-patch normalized.
        target = ctx["patches"]
        sq = m._buf("sq", target.shape, target.dtype)
        if m.cfg.norm_pix_loss:
            xc = m._buf("target", target.shape, target.dtype)
            var = _centered_var(target, xc, sq)
            target = np.divide(xc, np.sqrt(var + 1e-6), out=xc)

        mask = ctx["mask"]
        dtype = np.result_type(pred, target)
        diff = np.subtract(pred, target, out=m._buf("diff", pred.shape, dtype))
        if sq.dtype != dtype:  # images of a narrower dtype than the model's
            sq = m._buf("sq_diff", pred.shape, dtype)
        per_patch = np.multiply(diff, diff, out=sq).mean(axis=-1)  # (B, N)
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
        # (2 / D) * diff * mask / mask_sum, left to right; in diff unless
        # the mask widens its dtype.
        diff, dtype = ctx["diff"], np.result_type(ctx["diff"], ctx["mask"])
        dpred = diff if diff.dtype == dtype else m._buf("dpred", diff.shape, dtype)
        np.multiply(2.0 / m.cfg.encoder.patch_dim, diff, out=dpred)
        np.multiply(dpred, ctx["mask"][:, :, None], out=dpred)
        np.divide(dpred, ctx["mask_sum"], out=dpred)
        dy_tail = m.pred.backward(dpred)  # (B, N, Wd)
        b, n, wd = dy_tail.shape
        dy_full = m._buf("dy_full", (b, 1 + n, wd), dy_tail.dtype)
        dy_full[:, 0] = 0.0
        dy_full[:, 1:] = dy_tail
        return m.dec_norm.backward(dy_full)

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
            + [_BlockOp(blk) for blk in self.enc_blocks]
            + [_BridgeOp(self)]
            + [_BlockOp(blk) for blk in self.dec_blocks]
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

    # -- embedding and the unmasked encoder ---------------------------------

    def _embed(self, imgs: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, ...]:
        """Patchify, embed and position ``imgs``, then gather the patches
        ``keep`` (``(B, L)`` ids) behind the cls token: ``(patches (B, N,
        D), tokens (B, 1+L, W))``."""
        enc = self.cfg.encoder
        want = (enc.in_chans, enc.img_size, enc.img_size)
        if imgs.ndim != 4 or imgs.shape[1:] != want:
            raise ValueError(
                f"images must be (B, {', '.join(map(str, want))}), got {imgs.shape}"
            )
        (b, n), w = keep.shape, enc.width
        shape = (b, enc.n_patches, enc.patch_dim)
        patches = patchify(imgs, enc.patch, out=self._buf("patches", shape, imgs.dtype))
        tok = self.patch_proj(patches)
        np.add(tok, self.enc_pos[1:], out=tok)
        x = _gather_rows(tok, keep, self._buf(f"tokens{n}", (b, 1 + n, w), tok.dtype))
        np.add(self.cls_token.data[0], self.enc_pos[:1], out=x[:, 0])
        return patches, x

    def _encode_unmasked(self, imgs: np.ndarray) -> np.ndarray:
        """The encoder over every patch, masking disabled: ``(B, 1+N, W)``
        after the final norm, pooled like any layer output."""
        n = self.cfg.encoder.n_patches
        _, x = self._embed(imgs, np.broadcast_to(np.arange(n), (len(imgs), n)))
        for blk in self.enc_blocks:
            x = blk(x)
        return self.enc_norm(x)

    def encode_features(self, imgs: np.ndarray) -> np.ndarray:
        """Class-token features from the *unmasked* encoder: ``(B, W)``.

        This is the representation the paper linear-probes (the MAE
        encoder applied to the full image, masking disabled). A copy,
        because feature extraction batches calls.
        """
        return self._encode_unmasked(imgs)[:, 0, :].copy()

    def encode_patch_tokens(self, imgs: np.ndarray) -> np.ndarray:
        """Per-patch features from the unmasked encoder: ``(B, N, W)``.

        The dense counterpart of :meth:`encode_features` — used for
        patch-level downstream tasks (semantic segmentation probing).
        """
        return self._encode_unmasked(imgs)[:, 1:, :].copy()
