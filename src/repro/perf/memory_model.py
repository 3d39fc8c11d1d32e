"""Per-GPU resident-memory model, by sharding strategy and precision.

Using ZeRO's nomenclature, the *model states* of ``P`` fp32 parameters
under AdamW are ``16 P`` bytes: parameters (4P), gradients (4P), and the
two Adam moments (8P). Under emulated bf16 mixed precision the total is
the same ``16 P`` but the split moves: bf16 parameters (2P) and
gradients (2P) ride next to the fp32 master weights (4P) and moments
(8P) — which is why mixed precision alone does not shrink model states,
only activations and wire traffic. Strategies shard different subsets:

===================  ===============================================
strategy             resident model-state bytes per GPU (fp32)
===================  ===============================================
NO_SHARD / DDP       ``16 P``
HYBRID(s)            ``16 P / s``
FULL_SHARD (world W) ``16 P / W`` plus transiently-gathered units
SHARD_GRAD_OP        ``4 P`` (full params) + ``12 P / W``
===================  ===============================================

Under bf16 the parameter term uses 2 bytes/param (so e.g. SHARD_GRAD_OP
becomes ``2 P + 14 P / W``); the per-dtype split is reported in
:attr:`MemoryBreakdown.by_dtype`.

Transient: strategies that reshard keep ~2 units materialized at a time
(current + prefetched), each costing params (+ grads in backward) at the
*working* parameter width — these buffers halve under bf16. A unit is
priced by the largest block's GEMM weight matrices alone
(:attr:`~repro.perf.compute_model.UnitRow.gemm_weights`, no biases or
norms).

Activations follow the paper's evident configuration (a 3B model plus
activations fits in 64 GB only with activation checkpointing): stored
block inputs ``B*N*W*b`` per block plus one block's live intermediates
``B*N*(12W + H*N)*b``, at ``b`` bytes per activation value (4 fp32,
2 bf16).

Gradient accumulation (``grad_accum_steps > 1``) adds one unsharded fp32
accumulation buffer (4P): contributions are summed at full precision
between optimizer steps regardless of the wire dtype.

The same accounting, applied to the executable engines at proxy scale, is
validated against actually-allocated NumPy bytes in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.core.config import MAEConfig, ViTConfig
from repro.core.sharding import STRATEGY_TABLE, ShardingStrategy, resolve_shard_size
from repro.mesh.spec import MeshSpec
from repro.perf.compute_model import BYTES_PER_PARAM, unit_table
from repro.perf.mesh_model import tp_shardable_fraction
from repro.precision.bf16 import DTYPE_BYTES, PRECISIONS
from repro.telemetry.bus import TelemetryBus

__all__ = ["MemoryBreakdown", "memory_breakdown", "activation_bytes"]

#: params + grads + AdamW moments, in parameter-byte multiples.
MODEL_STATE_MULTIPLIER = 4  # x BYTES_PER_PARAM: 4+4+8 = 16 bytes/param
#: Units kept materialized by resharding strategies (current + prefetch).
TRANSIENT_UNITS = 2
#: Fixed per-GPU runtime workspace (communication and BLAS scratch).
WORKSPACE_BYTES = 1.0e9
#: Caching-allocator slack as a share of the dynamic categories; fitted
#: so an unsharded ViT-3B needs "more than 60 GB" (EXPERIMENTS.md).
ALLOCATOR_OVERHEAD_FRAC = 0.18


@dataclass(frozen=True)
class MemoryBreakdown:
    """Per-GPU bytes by category.

    ``allocator_overhead`` is the caching-allocator slack (fragmentation
    and reserved-but-unused blocks) that rocm-smi-style measurements
    include; it scales with the dynamic categories. ``grad_accum`` is the
    unsharded fp32 gradient-accumulation buffer (zero when
    ``grad_accum_steps == 1``). ``by_dtype`` splits the attributable
    categories (model states, transient, activations, grad accumulation)
    per dtype label — the footprint view mixed-precision sizing decisions
    key off.
    """

    model_states: float
    transient: float
    activations: float
    workspace: float
    allocator_overhead: float = 0.0
    grad_accum: float = 0.0
    by_dtype: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Sum over all memory categories."""
        return (
            self.model_states
            + self.transient
            + self.activations
            + self.workspace
            + self.allocator_overhead
            + self.grad_accum
        )

    def emit(self, telemetry: TelemetryBus) -> None:
        """Publish each category as a ``mem.<category>`` gauge (bytes)."""
        for f in fields(self):
            if f.name != "by_dtype":
                telemetry.gauge(f"mem.{f.name}", getattr(self, f.name))


def activation_bytes(
    width: int,
    depth: int,
    heads: int,
    seq: int,
    local_batch: int,
    checkpointing: bool = True,
    bytes_per_value: float = BYTES_PER_PARAM,
) -> float:
    """Activation memory of a transformer stack for one microbatch.

    ``bytes_per_value`` is the stored-activation width: 4 at fp32, 2
    under bf16 (activations are kept at the working precision).
    """
    per_token = bytes_per_value * width
    block_inputs = local_batch * seq * per_token * depth
    live_block = local_batch * seq * bytes_per_value * (12 * width + heads * seq)
    if checkpointing:
        return block_inputs + live_block
    # Without checkpointing every block keeps its intermediates.
    return depth * live_block + block_inputs


def _state_components(precision: str) -> list[tuple[str, float, str]]:
    """(component, bytes per param, dtype label) of the model states.

    fp32: params/grads/moments all fp32 (4+4+8 = 16 bytes/param).
    bf16: bf16 params and grads next to fp32 masters and moments
    (2+2+4+8 = 16 bytes/param — same total, different split).
    """
    if precision == "fp32":
        return [
            ("params", 4.0, "fp32"),
            ("grads", 4.0, "fp32"),
            ("optim", 8.0, "fp32"),
        ]
    return [
        ("params", 2.0, "bf16"),
        ("grads", 2.0, "bf16"),
        ("master", 4.0, "fp32"),
        ("optim", 8.0, "fp32"),
    ]


def memory_breakdown(
    model: ViTConfig | MAEConfig,
    strategy: ShardingStrategy,
    world_size: int,
    shard_size: int | None = None,
    local_batch: int = 32,
    checkpointing: bool = True,
    precision: str = "fp32",
    grad_accum_steps: int = 1,
    mesh: MeshSpec | None = None,
    pipeline_micros: int = 1,
) -> MemoryBreakdown:
    """Per-GPU memory for a training step of ``model`` under ``strategy``.

    ``shard_size`` is required for HYBRID_SHARD; NO_SHARD/DDP imply 1 and
    FULL_SHARD / SHARD_GRAD_OP imply the world size. ``precision`` moves
    the model-state split (see :func:`_state_components`) and halves
    transient and activation widths; ``grad_accum_steps > 1`` adds the
    unsharded fp32 accumulation buffer.

    With a ``mesh``, the sharding strategy applies along the dp axis
    only (``mesh.dp`` replaces ``world_size`` as the divisor); pipeline
    parallelism keeps ``~1/pp`` of the blocks per stage (even-split
    approximation) and tensor parallelism divides the tp-shardable GEMM
    parameter fraction by ``mesh.tp``. Activation residency follows the
    schedule: gpipe keeps all ``pipeline_micros`` microbatch inputs
    live before the backward drains them, 1f1b at most ``pp``.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if precision not in PRECISIONS:
        raise ValueError(f"precision must be one of {PRECISIONS}, got {precision!r}")
    if grad_accum_steps < 1:
        raise ValueError(f"grad_accum_steps must be >= 1, got {grad_accum_steps}")
    if pipeline_micros < 1:
        raise ValueError(f"pipeline_micros must be >= 1, got {pipeline_micros}")
    table = unit_table(model)
    stacks = table[1:]
    total_params = sum(r.depth * r.params for r in table)
    max_block_params = max(r.gemm_weights for r in stacks)
    param_width = float(DTYPE_BYTES["bf16" if precision == "bf16" else "fp32"])

    pp = tp = 1
    live_micros = 1
    if mesh is not None:
        pp, tp = mesh.pp, mesh.tp
        if mesh.size != world_size:
            raise ValueError(
                f"mesh.size={mesh.size} disagrees with world_size={world_size}"
            )
        # dp is the only axis the sharding strategy divides over.
        world_size = mesh.dp
        if shard_size is not None:
            shard_size = min(shard_size, mesh.dp)
        frac = tp_shardable_fraction(model)
        param_scale = ((1.0 - frac) + frac / tp) / pp
        total_params *= param_scale
        max_block_params /= tp
        live_micros = (
            min(pipeline_micros, pp) if mesh.schedule == "1f1b" else pipeline_micros
        )

    # Sharding divisors, from the strategy's row: the shard size always
    # divides grads, masters and moments; parameters only where the row
    # shards them too (SHARD_GRAD_OP keeps them resident). Transients of
    # the materialized units: their gradients, plus their parameters
    # when the row frees and regathers them for backward.
    row = STRATEGY_TABLE[strategy]
    s = resolve_shard_size(strategy, shard_size, world_size)
    other_div = float(s)
    param_div = other_div if row.shards_params else 1.0
    transient_components = (
        1 + row.regather_in_backward if row.materializes(s) else 0
    )

    by_dtype: dict[str, float] = {}
    states = 0.0
    for name, bytes_per_param, dtype in _state_components(precision):
        div = param_div if name == "params" else other_div
        contrib = total_params * bytes_per_param / div
        states += contrib
        by_dtype[dtype] = by_dtype.get(dtype, 0.0) + contrib

    transient = TRANSIENT_UNITS * max_block_params * param_width * transient_components
    if transient:
        by_dtype[precision] = by_dtype.get(precision, 0.0) + transient

    act_width = float(DTYPE_BYTES["bf16"]) if precision == "bf16" else BYTES_PER_PARAM
    if mesh is not None:
        # Per stage: ~depth/pp stored block inputs, one live block's
        # intermediates sharded tp ways (qkv/mlp widths and attention
        # scores are all head-/column-parallel). In-flight microbatches
        # multiply the stored inputs, not the single live block.
        acts = 0.0
        for r in stacks:
            w, h, n = r.width, r.heads, r.seq
            local_depth = math.ceil(r.depth / pp)
            block_inputs = local_batch * n * act_width * w * local_depth
            live_block = local_batch * n * act_width * (12 * w + h * n) / tp
            if checkpointing:
                acts += block_inputs * live_micros + live_block
            else:
                acts += (local_depth * live_block + block_inputs) * live_micros
    else:
        acts = sum(
            activation_bytes(
                r.width, r.depth, r.heads, r.seq, local_batch, checkpointing, act_width
            )
            for r in stacks
        )
    by_dtype[precision] = by_dtype.get(precision, 0.0) + acts

    # Accumulated gradients are combined at full precision between
    # optimizer steps, whatever the wire/working dtype.
    accumulating = grad_accum_steps > 1 or (mesh is not None and pipeline_micros > 1)
    grad_accum = total_params * 4.0 if accumulating else 0.0
    if grad_accum:
        by_dtype["fp32"] = by_dtype.get("fp32", 0.0) + grad_accum

    return MemoryBreakdown(
        model_states=states,
        transient=transient,
        activations=acts,
        workspace=WORKSPACE_BYTES,
        allocator_overhead=ALLOCATOR_OVERHEAD_FRAC
        * (states + transient + acts + grad_accum),
        grad_accum=grad_accum,
        by_dtype=by_dtype,
    )
