"""Core: the paper's primary contribution.

- :mod:`repro.core.config` — the Table I ViT variant registry, MAE
  configurations, exact parameter counting, and the scaled-down proxy
  family used for executable training.
- :mod:`repro.core.sharding` — sharding strategies and flat-parameter
  shard plans.
- :mod:`repro.core.engine_core` — :class:`EngineCore`, what every
  engine does identically (lifecycle, retried/telemetered collectives,
  precision, checkpoint state, the ``train_step`` skeleton) and the
  contract a layout over it meets.
- :mod:`repro.core.fsdp` — the executable mini-FSDP layout (NO_SHARD,
  FULL_SHARD, SHARD_GRAD_OP, HYBRID_SHARD) over simulated collectives.
- :mod:`repro.core.ddp` — the bucketed distributed-data-parallel layout
  (the third layout, the mesh engine, lives in :mod:`repro.mesh.engine`).
- :mod:`repro.core.engine` — :func:`make_engine` /
  :class:`EngineConfig`, the one-call construction path for every
  strategy.
- :mod:`repro.core.trainer` / :mod:`repro.core.simclr_trainer` — the MAE
  and SimCLR pretraining loops over any engine.
- :mod:`repro.core.scaling` — weak-scaling experiment driver producing
  images-per-second, memory, and communication-share reports.
"""

from repro.core.config import (
    MAEConfig,
    PROXY_VARIANTS,
    VIT_VARIANTS,
    ViTConfig,
    count_mae_params,
    count_vit_params,
    get_mae_config,
    get_vit_config,
)
from repro.core.ddp import DDPEngine
from repro.core.engine import STRATEGY_CHOICES, EngineConfig, make_engine
from repro.core.fsdp import FSDPEngine
from repro.core.sharding import (
    BackwardPrefetch,
    ShardingStrategy,
    ShardPlan,
    flatten_params,
    unflatten_params,
)
from repro.core.scaling import run_strategy_grid, run_strong_scaling, run_weak_scaling
from repro.core.simclr_trainer import SimCLRPretrainer
from repro.core.trainer import MAEPretrainer, TrainResult

__all__ = [
    "ViTConfig",
    "MAEConfig",
    "VIT_VARIANTS",
    "PROXY_VARIANTS",
    "get_vit_config",
    "get_mae_config",
    "count_vit_params",
    "count_mae_params",
    "ShardingStrategy",
    "BackwardPrefetch",
    "ShardPlan",
    "flatten_params",
    "unflatten_params",
    "EngineConfig",
    "make_engine",
    "STRATEGY_CHOICES",
    "FSDPEngine",
    "DDPEngine",
    "MAEPretrainer",
    "SimCLRPretrainer",
    "TrainResult",
    "run_weak_scaling",
    "run_strong_scaling",
    "run_strategy_grid",
]
