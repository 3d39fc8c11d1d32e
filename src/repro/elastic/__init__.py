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

Import structure: this ``__init__`` eagerly imports only the leaf
modules (``errors``, ``layout``, ``preemption`` — stdlib-only), so
:mod:`repro.core` can import them without a cycle; ``reshard``,
``requeue`` and ``campaign`` (which import :mod:`repro.core`) are
exposed lazily via module ``__getattr__``.
"""

from __future__ import annotations

from repro.elastic.errors import ElasticCompatibilityError, PreemptedError
from repro.elastic.layout import ReductionLayout, natural_layout, validate_layout
from repro.elastic.preemption import PreemptionHandler, PreemptionToken

__all__ = [
    "ElasticCompatibilityError",
    "PreemptedError",
    "ReductionLayout",
    "natural_layout",
    "validate_layout",
    "PreemptionHandler",
    "PreemptionToken",
    # lazily resolved (import repro.core):
    "TopologySpec",
    "engine_topology",
    "reshard_engine_state",
    "reshard_trainer_state",
    "Allocation",
    "compatible_allocations",
    "ResizeScheduler",
    "RequeueDriver",
    "RequeueReport",
    "run_resize_campaign",
]

_LAZY = {
    "TopologySpec": "repro.elastic.reshard",
    "engine_topology": "repro.elastic.reshard",
    "reshard_engine_state": "repro.elastic.reshard",
    "reshard_trainer_state": "repro.elastic.reshard",
    "Allocation": "repro.elastic.requeue",
    "compatible_allocations": "repro.elastic.requeue",
    "ResizeScheduler": "repro.elastic.requeue",
    "RequeueDriver": "repro.elastic.requeue",
    "RequeueReport": "repro.elastic.requeue",
    "run_resize_campaign": "repro.elastic.campaign",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(__all__)
