"""One unit table per ViT / MAE workload, and the compute costs read off it.

:func:`unit_table` is where ``perf/`` works out a workload's shape. Its
rows list the FSDP wrap units in pipeline order: the root unit
(embeddings, norms, heads), then each stack of identical transformer
blocks. Every predictor reads these rows: :func:`workload_units` here,
the mesh traffic model (:mod:`repro.perf.mesh_model`) and the memory
model (:mod:`repro.perf.memory_model`).

FLOPs count one multiply-add as 2 FLOPs. Per image, one block of width
W, mlp M and sequence N costs
  ``N * (8 W^2 + 4 W M) + 4 N^2 W``
(qkv ``6W^2`` + output proj ``2W^2`` + MLP ``4WM`` per token; the two
attention matmuls QK^T and AV contribute ``4 N^2 W`` per image). The
root prices each of its GEMMs over the rows it runs on: the patch embed
over every patch; under MAE also the decoder embed over the visible
tokens plus the cls token, and the prediction head over the patch rows.

Backward costs exactly ``BACKWARD_RATIO`` times forward: every GEMM
forms both its weight gradient and its input gradient, each the size of
its forward product. ``tests/test_perf/test_executed_flops.py`` counts
the GEMMs the NumPy models execute and asserts the table's forward total
and this ratio with integer equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import (
    MAEConfig,
    ViTConfig,
    count_mae_params,
    count_vit_params,
    vit_block_params,
)
from repro.hardware.gpu import GpuSpec

__all__ = [
    "UnitRow",
    "UnitCost",
    "unit_table",
    "block_forward_flops",
    "forward_flops",
    "workload_units",
    "BYTES_PER_PARAM",
    "BACKWARD_RATIO",
]

#: The paper's runs are plain fp32 (no mention of AMP; FSDP default).
BYTES_PER_PARAM = 4
#: Executed backward GEMM FLOPs over forward, on every proxy and size.
BACKWARD_RATIO = 2


@dataclass(frozen=True)
class UnitRow:
    """``depth`` identical FSDP wrap units of a workload (the root: one).

    ``width`` x ``seq`` is the activation one unit emits per image (the
    root's: its patch-embed output). ``mlp`` and ``heads`` are 0 on the
    root. Per unit: ``params`` is the exact parameter count,
    ``gemm_params`` the share in the four tp-flagged GEMMs (qkv, proj,
    fc1, fc2, with biases), ``gemm_weights`` those GEMMs' weight matrices
    alone (``4W^2 + 2WM``, what the memory model prices a materialized
    block by) and ``flops`` the forward FLOPs of one image.
    """

    name: str
    width: int
    mlp: int
    heads: int
    seq: int
    depth: int
    params: int
    gemm_params: int
    gemm_weights: int
    flops: int

    def activation_values(self, batch: int) -> int:
        """Values of the activation one unit emits for ``batch`` images."""
        return batch * self.seq * self.width


def block_forward_flops(width: int, mlp: int, seq: int) -> int:
    """Forward FLOPs of one transformer block for one image."""
    return seq * (8 * width * width + 4 * width * mlp) + 4 * seq * seq * width


def _block_row(
    name: str, width: int, mlp: int, heads: int, seq: int, depth: int
) -> UnitRow:
    weights = 4 * width * width + 2 * width * mlp
    # The four GEMMs' biases: qkv 3W, proj W, fc1 M, fc2 W.
    biases = 5 * width + mlp
    return UnitRow(
        name=name,
        width=width,
        mlp=mlp,
        heads=heads,
        seq=seq,
        depth=depth,
        params=vit_block_params(width, mlp),
        gemm_params=weights + biases,
        gemm_weights=weights,
        flops=block_forward_flops(width, mlp, seq),
    )


def unit_table(model: ViTConfig | MAEConfig) -> tuple[UnitRow, ...]:
    """The workload's wrap units in pipeline order: root, then block stacks.

    The root's parameters are the model's exact count
    (:mod:`repro.core.config`) minus its blocks'.
    """
    if isinstance(model, MAEConfig):
        enc = model.encoder
        enc_seq = model.n_visible + 1
        total = count_mae_params(model)
        blocks = (
            _block_row("enc_block", enc.width, enc.mlp, enc.heads, enc_seq, enc.depth),
            _block_row(
                "dec_block",
                model.dec_width,
                4 * model.dec_width,
                model.dec_heads,
                enc.seq_len,
                model.dec_depth,
            ),
        )
        head_flops = (
            2 * enc_seq * enc.width * model.dec_width  # decoder embed
            + 2 * enc.n_patches * model.dec_width * enc.patch_dim  # prediction head
        )
    else:
        enc = model
        total = count_vit_params(model)
        blocks = (
            _block_row("block", enc.width, enc.mlp, enc.heads, enc.seq_len, enc.depth),
        )
        head_flops = 0
    first = blocks[0]
    root = UnitRow(
        name="root",
        width=first.width,
        mlp=0,
        heads=0,
        seq=first.seq,
        depth=1,
        params=total - sum(b.depth * b.params for b in blocks),
        gemm_params=0,
        gemm_weights=0,
        flops=2 * enc.n_patches * enc.patch_dim * enc.width + head_flops,
    )
    return (root, *blocks)


def forward_flops(model: ViTConfig | MAEConfig) -> int:
    """Forward FLOPs of the whole workload for one image."""
    return sum(r.depth * r.flops for r in unit_table(model))


@dataclass(frozen=True)
class UnitCost:
    """One FSDP wrapping unit's static cost profile.

    ``fwd_seconds`` is the forward compute time of this unit for one
    *local* microbatch, ``flops`` its forward FLOPs; backward costs
    ``BACKWARD_RATIO`` times more. ``row`` is the table row the unit
    belongs to (its shape).
    """

    name: str
    param_bytes: int
    fwd_seconds: float
    row: UnitRow
    flops: float

    @property
    def bwd_seconds(self) -> float:
        """Backward compute time (forward x BACKWARD_RATIO)."""
        return self.fwd_seconds * BACKWARD_RATIO


def workload_units(
    model: ViTConfig | MAEConfig, local_batch: int, gpu: GpuSpec
) -> list[UnitCost]:
    """One :class:`UnitCost` per FSDP wrap unit, in pipeline order."""
    if local_batch <= 0:
        raise ValueError(f"local_batch must be positive, got {local_batch}")
    root, *stacks = unit_table(model)

    def cost(name: str, r: UnitRow) -> UnitCost:
        flops = r.flops * local_batch
        fwd_s = gpu.time_for_flops(flops, r.width)
        return UnitCost(name, r.params * BYTES_PER_PARAM, fwd_s, r, flops)

    blocks = [cost(f"{r.name}{i}", r) for r in stacks for i in range(r.depth)]
    return [cost(root.name, root)] + blocks
