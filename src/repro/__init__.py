"""repro — reproduction of "Pretraining Billion-scale Geospatial
Foundational Models on Frontier" (Tsaris et al., IPDPS 2024).

The package provides three layers:

1. **Executable distributed training** (:mod:`repro.core`,
   :mod:`repro.comm`, :mod:`repro.models`, :mod:`repro.optim`): a
   from-scratch NumPy ViT/MAE with hand-derived backward passes, trained
   under a mini-FSDP engine implementing NO_SHARD / FULL_SHARD /
   SHARD_GRAD_OP / HYBRID_SHARD plus a bucketed DDP baseline over
   simulated MPI-style collectives — numerically equivalent across every
   strategy (tested to 1e-10).
2. **Performance simulation** (:mod:`repro.perf`, :mod:`repro.hardware`):
   an analytical + discrete-event model of a Frontier slice that times
   one training step of any Table I variant under any strategy,
   reproducing the paper's weak-scaling, memory, communication-share and
   power results in shape.
3. **Downstream evaluation** (:mod:`repro.data`, :mod:`repro.eval`,
   :mod:`repro.experiments`): procedural geospatial datasets, MAE
   pretraining across a scaled model family, and LARS linear probing —
   reproducing the paper's accuracy-grows-with-scale findings.

Quick start::

    from repro import (
        EngineConfig, MAEPretrainer, MaskedAutoencoder, World,
        get_mae_config, make_engine,
    )

    engine = make_engine(model, "full_shard", world=World(8))

See ``examples/quickstart.py`` for a complete runnable walkthrough and
the README's "API tour" for the blessed public surface re-exported
here: what the examples and ``benchmarks/e2e`` import, plus the
exceptions those names raise. Every other public name is imported from
its subpackage (``repro.core``, ``repro.perf``, ...).

Every package re-exports through one :func:`lazy_exports` table: a
name's submodule is imported the first time the name is read, so
``import repro`` imports no submodule and a training job loads only the
code it runs (an import error in a submodule surfaces at that first
access).
"""

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for a package re-exporting the
    names of its submodules on first access (PEP 562).

    ``table`` maps a submodule, relative to ``package``, to the names it
    exports; it is the package's one list of public names. A name is
    imported when first read and then cached on the package.
    """
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, list(home)


__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "comm.world": ("World",),
        "core.config": ("get_mae_config",),
        "core.engine": ("EngineConfig", "make_engine"),
        "backend": ("WorkerCrashError", "WorkerStepError"),
        "mesh": ("MeshSpec",),
        "core.trainer": ("MAEPretrainer",),
        "elastic": ("ElasticCompatibilityError", "PreemptedError"),
        "optim.adamw": ("AdamW",),
        "models.mae": ("MaskedAutoencoder",),
        "eval.linear_probe": ("linear_probe",),
        "serve": (
            "InferenceServer",
            "VirtualClock",
            "ServiceTimeModel",
            "latency_stats",
            "TenantSpec",
            "AdmissionController",
            "AutoscalePolicy",
            "Autoscaler",
            "RateProfile",
            "TenantTraffic",
            "generate_workload",
            "run_open_loop",
            "plan_capacity",
            "reconcile_plan",
        ),
        "telemetry": ("TelemetryBus", "RecordingSink", "JsonlSink", "RunReport"),
    },
)
__all__.append("__version__")
