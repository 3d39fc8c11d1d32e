"""Core: the paper's primary contribution.

- :mod:`repro.core.config` — the Table I ViT variant registry, MAE
  configurations, exact parameter counting, and the scaled-down proxy
  family used for executable training.
- :mod:`repro.core.sharding` — sharding strategies, the strategy table
  (one row per strategy: storage, shard size, gathers, reduce,
  divisors) and flat-parameter shard plans.
- :mod:`repro.core.engine_core` — :class:`EngineCore`, the one
  executable engine: DDP and the four FSDP strategies run from their
  table rows over simulated collectives (the mesh engine in
  :mod:`repro.mesh.engine` adds the tp / pp axes around it).
- :mod:`repro.core.engine` — :func:`make_engine` /
  :class:`EngineConfig`, the only construction path.
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
from repro.core.engine import STRATEGY_CHOICES, EngineConfig, make_engine
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
    "MAEPretrainer",
    "SimCLRPretrainer",
    "TrainResult",
    "run_weak_scaling",
    "run_strong_scaling",
    "run_strategy_grid",
]
