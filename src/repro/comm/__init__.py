"""Communication substrate.

This package plays the role MPI/RCCL plays under PyTorch distributed:

- :mod:`repro.comm.world` — ranks, process groups, and the hybrid-sharding
  device-mesh construction (shard groups x replica groups).
- :mod:`repro.comm.collectives` — *executable* collectives over per-rank
  NumPy buffers (ring all-gather / reduce-scatter / all-reduce /
  broadcast), with per-operation call and byte accounting. These run the
  real data movement of the mini-FSDP engine in-process (SPMD style).
- :mod:`repro.comm.cost_model` — alpha-beta time model for the same
  collectives on a hierarchical machine topology; used by the
  performance simulator.
- :mod:`repro.comm.bucketing` — DDP-style gradient bucketing.
- :mod:`repro.comm.faults` — deterministic fault injection (dropped /
  corrupted buffers, transient collective failures, stragglers) and the
  retry-with-backoff policy the engines use to survive them.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "world": ("World", "Group", "make_hybrid_mesh"),
        "collectives": ("SimComm", "CommStats"),
        "cost_model": ("CollectiveCostModel", "GroupPlacement"),
        "bucketing": ("Bucket", "bucket_gradients"),
        "faults": ("FaultSpec", "FaultPlan", "CollectiveError", "RetryPolicy", "call_with_retry"),
    },
)
