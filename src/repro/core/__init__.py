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

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "config": (
            "ViTConfig",
            "MAEConfig",
            "VIT_VARIANTS",
            "PROXY_VARIANTS",
            "get_vit_config",
            "get_mae_config",
            "count_vit_params",
            "count_mae_params",
        ),
        "sharding": (
            "ShardingStrategy",
            "BackwardPrefetch",
            "ShardPlan",
            "flatten_params",
            "unflatten_params",
        ),
        "engine": ("EngineConfig", "make_engine", "STRATEGY_CHOICES"),
        "trainer": ("MAEPretrainer", "TrainResult"),
        "simclr_trainer": ("SimCLRPretrainer",),
        "scaling": ("run_weak_scaling", "run_strong_scaling", "run_strategy_grid"),
    },
)
