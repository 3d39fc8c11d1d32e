"""Machine model of the Frontier supercomputer (and parametric variants).

- :mod:`repro.hardware.gpu` — one accelerator die (GCD): peak FLOP/s,
  HBM capacity, and a matmul-efficiency curve.
- :mod:`repro.hardware.topology` — hierarchical topology graph
  (GCD <-> MI250X package <-> node <-> interconnect) built on networkx.
- :mod:`repro.hardware.frontier` — published Frontier constants and the
  factory that assembles a :class:`Machine` plus the calibrated
  :class:`~repro.comm.cost_model.CollectiveCostModel`.
- :mod:`repro.hardware.power` — occupancy-driven GPU power/utilization
  trace model (reproduces the paper's Fig. 4 rocm-smi panel).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "gpu": ("GpuSpec",),
        "frontier": ("Machine", "FRONTIER", "frontier_machine"),
        "topology": ("build_machine_graph", "min_path_bandwidth"),
        "power": ("PowerModel", "PowerTrace"),
    },
)
