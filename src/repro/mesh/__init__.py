"""N-D device meshes and the parallelism layers composed over them.

The mesh package generalizes the hard-coded 2-D replica x shard mesh of
``comm/world.py`` into one composable stack:

- :mod:`repro.mesh.spec` — :class:`MeshSpec`, the pure-literal
  ``EngineConfig(mesh=...)`` value naming the ``("pp", "dp", "tp")``
  axes (dependency leaf; importable from the config layer).
- :mod:`repro.mesh.device_mesh` — :class:`DeviceMesh`, named-axis rank
  grids with per-axis process-group extraction (the only place besides
  ``comm/world.py`` allowed to construct ``Group`` objects; see the
  ``group_discipline`` rule of ``tools/lint.py``).
- :mod:`repro.mesh.tp` — :class:`TPContext`, megatron-style tensor
  parallelism as load-bearing column-shard all-gathers.
- :mod:`repro.mesh.pipeline` — GPipe / 1F1B schedules over
  layer-partitioned op stages.
- :mod:`repro.mesh.engine` — ``MeshEngine``, the core engine running
  the ddp / full-shard row over the dp axis with the tp and pp axes
  composed around it; built only via
  ``make_engine(model, strategy, world=..., mesh=MeshSpec(...))`` and
  not re-exported here.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "device_mesh": ("DeviceMesh",),
        "spec": ("MESH_AXIS_NAMES", "MeshSpec", "PIPELINE_SCHEDULES"),
        "tp": ("TPContext",),
        "pipeline": (
            "gpipe_schedule",
            "one_f_one_b_schedule",
            "partition_stages",
            "schedule_actions",
        ),
    },
)
