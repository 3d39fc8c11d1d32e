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

from repro.perf.compute_model import UnitCost, mae_workload_units, vit_workload_units
from repro.perf.events import Task, Timeline
from repro.perf.hotpath import (
    KernelTiming,
    PairTiming,
    time_kernel,
    time_pair,
)
from repro.perf.io_model import IoModel
from repro.perf.memory_model import MemoryBreakdown, memory_breakdown
from repro.perf.mesh_model import (
    AxisTraffic,
    MeshTrafficPrediction,
    predict_mesh_traffic,
    tp_shardable_fraction,
)
from repro.perf.schedule import pipeline_bubble_fraction
from repro.perf.simulator import PerfParams, StepBreakdown, TrainStepSimulator

__all__ = [
    "AxisTraffic",
    "MeshTrafficPrediction",
    "predict_mesh_traffic",
    "tp_shardable_fraction",
    "pipeline_bubble_fraction",
    "KernelTiming",
    "PairTiming",
    "time_kernel",
    "time_pair",
    "Task",
    "Timeline",
    "UnitCost",
    "vit_workload_units",
    "mae_workload_units",
    "MemoryBreakdown",
    "memory_breakdown",
    "IoModel",
    "PerfParams",
    "StepBreakdown",
    "TrainStepSimulator",
]
