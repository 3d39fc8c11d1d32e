"""Analytical + discrete-event performance simulator.

Times one training step of any Table I variant under any sharding
strategy on a Frontier slice, reproducing the quantities of the paper's
Figures 1-4: images/second, per-GPU memory, communication share, and
power/utilization traces.

- :mod:`repro.perf.events` — deterministic list-scheduling event engine
  (streams = resources; tasks with dependencies).
- :mod:`repro.perf.compute_model` — ViT/MAE FLOP counts and per-unit
  compute costs.
- :mod:`repro.perf.memory_model` — per-strategy resident-memory model.
- :mod:`repro.perf.io_model` — dataloader/filesystem throughput model.
- :mod:`repro.perf.mesh_model` — closed-form per-axis (tp/pp/dp)
  collective payloads of a mesh run, reconciled byte-for-byte against
  the executable engines' telemetry.
- :mod:`repro.perf.schedule` — builds the per-step task graph for a
  strategy + prefetch policy, and composes the pipeline bubble.
- :mod:`repro.perf.simulator` — end-to-end step timing and reports.
- :mod:`repro.perf.tracing` — Chrome-trace export of simulated steps.
- :mod:`repro.perf.hotpath` — *measured* (not modeled) wall-clock
  kernel microbenchmarks of the NumPy substrate itself.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "mesh_model": (
            "AxisTraffic",
            "MeshTrafficPrediction",
            "predict_mesh_traffic",
            "tp_shardable_fraction",
        ),
        "schedule": ("pipeline_bubble_fraction",),
        "hotpath": ("KernelTiming", "PairTiming", "time_kernel", "time_pair"),
        "events": ("Task", "Timeline"),
        "compute_model": ("UnitCost", "vit_workload_units", "mae_workload_units"),
        "memory_model": ("MemoryBreakdown", "memory_breakdown"),
        "io_model": ("IoModel",),
        "simulator": ("PerfParams", "StepBreakdown", "TrainStepSimulator"),
    },
)
