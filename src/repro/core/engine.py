"""Engine construction: one factory, one config, five strategies.

Every engine is built one way::

    from repro import EngineConfig, make_engine

    engine = make_engine(model, "full_shard", world=world)
    engine = make_engine(model, "hybrid_shard", world=world,
                         config=EngineConfig(shard_size=2, telemetry=bus))
    engine = make_engine(model, "HYBRID_2GPUs", world=world)  # paper label

The strategy picks a row of
:data:`~repro.core.sharding.STRATEGY_TABLE`, which one class —
:class:`~repro.core.engine_core.EngineCore` — runs over the world.
Setting ``EngineConfig(mesh=MeshSpec(...))`` instead builds a
:class:`~repro.mesh.engine.MeshEngine`: the same class running the
``"ddp"`` or ``"full_shard"`` row over the dp group of a
:class:`~repro.mesh.device_mesh.DeviceMesh`, with tensor / pipeline
parallelism composed around it::

    engine = make_engine(model, "full_shard", world=World(8),
                         mesh=MeshSpec(pp=2, dp=2, tp=2))
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.backend import BACKEND_CHOICES
from repro.comm.bucketing import DEFAULT_BUCKET_CAP_BYTES
from repro.comm.collectives import SimComm
from repro.comm.faults import RetryPolicy
from repro.core.sharding import ShardingStrategy, parse_strategy
from repro.elastic.layout import ReductionLayout
from repro.mesh.spec import MeshSpec
from repro.optim.base import Optimizer
from repro.precision.bf16 import PRECISIONS
from repro.telemetry import TelemetryBus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.comm.world import World
    from repro.core.engine_core import EngineCore
    from repro.models.module import Module

__all__ = [
    "EngineConfig",
    "make_engine",
    "STRATEGY_CHOICES",
]

OptimizerFactory = Callable[[Sequence], Optimizer]

#: Strategy names accepted by :func:`make_engine` (paper-style labels
#: like ``"HYBRID_2GPUs"`` are accepted too).
STRATEGY_CHOICES = ("ddp", "no_shard", "full_shard", "shard_grad_op", "hybrid_shard")


@dataclass(frozen=True)
class EngineConfig:
    """One config shared by every engine kind.

    Fields every strategy reads: ``optimizer_factory``, ``comm``,
    ``retry_policy``, ``telemetry``, the precision / accumulation
    fields, ``backend``, ``reduction_layout``. DDP-only:
    ``bucket_cap_bytes``, ``first_bucket_cap_bytes``. ``shard_size`` is
    FSDP's and, on a mesh, must agree with ``mesh.dp``. Mesh-only: ``mesh``.
    A strategy ignores the fields that do not apply to it, so one config
    can build a whole strategy sweep.

    Attributes
    ----------
    optimizer_factory:
        ``params -> Optimizer``; ``None`` selects the paper's AdamW
        recipe.
    comm:
        Collective engine to issue through (fresh :class:`SimComm` per
        engine when ``None``).
    retry_policy:
        Bounded backoff for transient collective failures; ``None``
        disables retries.
    telemetry:
        Instrumentation bus; ``None`` means the shared disabled bus
        (:data:`repro.telemetry.NULL_BUS`). Every collective becomes a
        ``comm.<op>`` span with bytes attached (tagged ``axis=`` on a
        mesh), forward/backward a ``compute.fwd_bwd`` span, the update
        an ``optim.step`` span, and retry backoff is attributed to the
        step that incurred it.
    bucket_cap_bytes / first_bucket_cap_bytes:
        DDP gradient-bucket sizing (PyTorch DDP's 25 MB / 1 MB scheme).
    shard_size:
        FSDP sharding-group size; required for ``hybrid_shard``, implied
        otherwise.
    precision:
        ``"fp32"`` (default; the paper's runs) or ``"bf16"`` — emulated
        bf16 parameters/gradients/collective payloads with
        full-precision master weights in the optimizer
        (:mod:`repro.precision`). Logical gradient wire bytes halve.
    grad_accum_steps:
        Microbatch rounds per optimizer step; ``train_step`` then takes
        ``grad_accum_steps * data_parallel_size`` microbatches
        (``world.size`` off a mesh, ``mesh.dp`` on one) and fires the
        optimizer once. In fp32 a ``k``-round step is bit-identical to
        the same global batch on a ``k``-times-larger world (tested).
    loss_scale / dynamic_loss_scale:
        Initial loss scale applied to gradients before the bf16 cast,
        and whether the AMP-style dynamic schedule (back off on
        non-finite gradients — skipping that step — grow after a clean
        streak) manages it. Ignored under fp32.
    backend:
        Where rank compute runs: ``"inline"`` (all ranks sequentially in
        this process; the default) or ``"process"`` (one spawned OS
        process per rank over shared-memory parameter/gradient blocks —
        :mod:`repro.backend`). fp32 training is bit-identical across
        backends; call ``engine.close()`` when done with a process
        backend to join workers and unlink the segments. A mesh with
        ``pp > 1`` runs only inline (``"process"`` is refused).
    reduction_layout:
        The logical :class:`~repro.elastic.layout.ReductionLayout` the
        gradient reduction must realize (``None`` — the default — keeps
        each strategy's natural layout and changes nothing). Set by the
        elastic requeue machinery when resuming a checkpoint into a
        resized world: configurations sharing a layout train fp32
        bit-identically, and HYBRID_SHARD with a single replica group
        can *fold* its two reduction stages to realize a single-stage
        layout from a larger world (e.g. FULL_SHARD 16 → HYBRID 8 with
        ``grad_accum_steps=2``).
    """

    optimizer_factory: OptimizerFactory | None = None
    comm: SimComm | None = None
    retry_policy: RetryPolicy | None = field(default_factory=RetryPolicy)
    telemetry: TelemetryBus | None = None
    # Mixed precision / accumulation (every engine kind)
    precision: str = "fp32"
    grad_accum_steps: int = 1
    loss_scale: float = 1.0
    dynamic_loss_scale: bool = False
    # Execution (every engine kind)
    backend: str = "inline"
    # Elastic resharding (every engine kind)
    reduction_layout: ReductionLayout | None = None
    # DDP-only
    bucket_cap_bytes: int = DEFAULT_BUCKET_CAP_BYTES
    first_bucket_cap_bytes: int | None = 1024 * 1024
    # FSDP-only
    shard_size: int | None = None
    # Mesh engine (tensor/pipeline parallelism composed with dp)
    mesh: MeshSpec | None = None

    def __post_init__(self) -> None:
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {self.precision!r}"
            )
        if self.grad_accum_steps < 1:
            raise ValueError(
                f"grad_accum_steps must be >= 1, got {self.grad_accum_steps}"
            )
        if self.loss_scale <= 0:
            raise ValueError(f"loss_scale must be positive, got {self.loss_scale}")
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"backend must be one of {BACKEND_CHOICES}, got {self.backend!r}"
            )
        if self.bucket_cap_bytes <= 0:
            raise ValueError(
                f"bucket_cap_bytes must be positive, got {self.bucket_cap_bytes}"
            )
        if self.first_bucket_cap_bytes is not None and self.first_bucket_cap_bytes <= 0:
            raise ValueError(
                "first_bucket_cap_bytes must be positive or None, "
                f"got {self.first_bucket_cap_bytes}"
            )
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")
        if self.mesh is not None and not isinstance(self.mesh, MeshSpec):
            raise TypeError(
                f"mesh must be a MeshSpec, got {type(self.mesh).__name__}"
            )


def _normalize_strategy(strategy) -> tuple[ShardingStrategy, int | None]:
    """Map a strategy name/enum onto (ShardingStrategy, implied shard size)."""
    if isinstance(strategy, ShardingStrategy):
        return strategy, None
    label = str(strategy).strip()
    if label.lower() in STRATEGY_CHOICES:
        label = label.upper()
    return parse_strategy(label)


def make_engine(
    model: "Module",
    strategy: str | ShardingStrategy = "ddp",
    *,
    world: "World",
    config: EngineConfig | None = None,
    **overrides,
) -> "EngineCore":
    """Build a training engine for any strategy — the only way to.

    Parameters
    ----------
    model:
        The NumPy model to train.
    strategy:
        ``"ddp"``, ``"no_shard"``, ``"full_shard"``, ``"shard_grad_op"``,
        ``"hybrid_shard"`` (any case), a paper label like
        ``"HYBRID_2GPUs"`` (which also implies ``shard_size``), or a
        :class:`~repro.core.sharding.ShardingStrategy` member. With
        ``config.mesh`` set, only ``"ddp"`` and ``"full_shard"`` are
        valid (the strategy of the mesh's dp axis).
    world:
        Rank layout.
    config:
        Shared :class:`EngineConfig`; defaults to ``EngineConfig()``.
    overrides:
        Individual :class:`EngineConfig` fields applied on top of
        ``config`` for one-off tweaks
        (``make_engine(..., shard_size=2)``).

    Returns an :class:`~repro.core.engine_core.EngineCore` (a
    :class:`~repro.mesh.engine.MeshEngine` when ``config.mesh`` is set);
    every strategy trains fp32 bit-identically to the single-rank
    oracle on the same global batch (tested per strategy).
    """
    cfg = config if config is not None else EngineConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    strat, implied_shard = _normalize_strategy(strategy)
    # Imported lazily: both engine modules import this one back.
    if cfg.mesh is not None:
        from repro.mesh.engine import MeshEngine

        return MeshEngine(model, world, strat, cfg)
    if implied_shard is not None:
        if cfg.shard_size is not None and cfg.shard_size != implied_shard:
            raise ValueError(
                f"strategy {strategy!r} implies shard_size={implied_shard}, "
                f"but config.shard_size={cfg.shard_size}"
            )
        cfg = replace(cfg, shard_size=implied_shard)
    from repro.core.engine_core import EngineCore

    return EngineCore(model, world, strat, cfg)
