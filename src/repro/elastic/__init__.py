"""Elastic world resizing: preemption, requeue, and checkpoint resharding.

Production clusters preempt jobs and requeue them into *different*
allocations. This package makes that survivable — and bit-exact:

- :mod:`repro.elastic.layout` — the :class:`ReductionLayout` invariant a
  resize must preserve for the fp32 trajectory to continue unchanged;
- :mod:`repro.elastic.preemption` — SIGUSR1/SIGTERM drain tokens
  modeled on the Slurm requeue handler;
- :mod:`repro.elastic.reshard` — checkpoint state remapped across world
  sizes and sharding strategies (FULL_SHARD 16 → HYBRID 8, DDP → FSDP,
  ...) through a world-neutral canonical form;
- :mod:`repro.elastic.requeue` — the scheduler/driver loop that restarts
  a preempted run into its next allocation via
  :meth:`~repro.core.trainer.Pretrainer.resume`, which reshards;
- :mod:`repro.elastic.campaign` — the resize chaos campaign asserting
  trajectory identity against an uninterrupted oracle run.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "errors": ("ElasticCompatibilityError", "PreemptedError"),
        "layout": ("ReductionLayout", "natural_layout", "validate_layout"),
        "preemption": ("PreemptionHandler", "PreemptionToken"),
        "reshard": (
            "TopologySpec",
            "engine_topology",
            "reshard_engine_state",
            "reshard_trainer_state",
        ),
        "requeue": (
            "Allocation",
            "compatible_allocations",
            "ResizeScheduler",
            "RequeueDriver",
            "RequeueReport",
        ),
        "campaign": ("run_resize_campaign",),
    },
)
