"""Analytical + discrete-event performance simulator.

Times one training step of any Table I variant under any sharding
strategy on a Frontier slice, reproducing the quantities of the paper's
Figures 1-4: images/second, per-GPU memory, communication share, and
power/utilization traces.

- :mod:`repro.perf.events` — deterministic list-scheduling event engine
  (streams = resources; tasks with dependencies).
- :mod:`repro.perf.compute_model` — the unit table every predictor
  reads (per-unit parameters, tp GEMM parameters and FLOPs of a ViT/MAE
  workload) and the per-unit compute costs.
- :mod:`repro.perf.memory_model` — per-strategy resident-memory model.
- :mod:`repro.perf.mesh_model` — closed-form per-axis (tp/pp/dp)
  collective payloads of a mesh run, reconciled byte-for-byte against
  the executable engines' telemetry.
- :mod:`repro.perf.schedule` — the simulated step's settings
  (``PerfParams``); builds the per-step task graph for a
  strategy + prefetch policy, composes the pipeline bubble, and replays
  a step onto a telemetry bus as the events the engines emit (exported
  to Chrome traces by :mod:`repro.telemetry.chrome`).
- :mod:`repro.perf.simulator` — end-to-end step timing and reports.
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
        "schedule": ("PerfParams", "pipeline_bubble_fraction"),
        "events": ("Task", "Timeline"),
        "compute_model": ("UnitCost", "workload_units"),
        "memory_model": ("MemoryBreakdown", "memory_breakdown"),
        "simulator": ("StepBreakdown", "TrainStepSimulator"),
    },
)
