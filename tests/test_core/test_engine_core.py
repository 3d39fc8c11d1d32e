"""One EngineCore: the engines are layouts over it, and stay that way.

What every engine does identically (lifecycle, retried/telemetered
collectives, checkpoint state, the step skeleton) lives once in
``repro.core.engine_core``; a copy growing back in a subclass fails
here. The topology records are pinned to the literals the three
stand-alone engines returned before they shared a core.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.backend import ProcessBackend
from repro.comm.world import World
from repro.core.ddp import DDPEngine
from repro.core.engine import EngineConfig, make_engine
from repro.core.engine_core import EngineCore
from repro.core.fsdp import FSDPEngine
from repro.mesh.engine import MeshEngine
from repro.mesh.spec import MeshSpec
from repro.models.module import Module

from tests.test_mesh.helpers import build_model

ENGINES = (DDPEngine, FSDPEngine, MeshEngine)

#: Written once, in the core.
CORE_OWNED = (
    "_collective",
    "close",
    "lr",
    "backend",
    "state_dict",
    "load_state_dict",
    "train_step",
)


@pytest.mark.parametrize("cls", ENGINES)
def test_engines_are_layouts_over_the_core(cls):
    assert issubclass(cls, EngineCore)
    regrown = [name for name in CORE_OWNED if name in vars(cls)]
    assert not regrown, f"{cls.__name__} re-defines core-owned {regrown}"
    for name in CORE_OWNED:
        assert name in vars(EngineCore)


TOPOLOGIES = [
    (
        "ddp",
        World(2),
        EngineConfig(),
        {
            "kind": "ddp",
            "strategy": "DDP",
            "world_size": 2,
            "ranks_per_node": 8,
            "shard_size": None,
            "grad_accum_steps": 1,
            "layout": {"total": 2, "chunk": 2},
            "precision": "fp32",
            "backend": "inline",
        },
    ),
    (
        "HYBRID_2GPUs",
        World(4),
        EngineConfig(grad_accum_steps=2),
        {
            "kind": "fsdp",
            "strategy": "HYBRID_SHARD",
            "world_size": 4,
            "ranks_per_node": 8,
            "shard_size": 2,
            "grad_accum_steps": 2,
            "layout": {"total": 8, "chunk": 2},
            "precision": "fp32",
            "backend": "inline",
        },
    ),
    (
        "full_shard",
        World(8),
        EngineConfig(mesh=MeshSpec(pp=2, dp=2, tp=2)),
        {
            "kind": "mesh",
            "strategy": "full_shard",
            "world_size": 8,
            "ranks_per_node": 8,
            "shard_size": 2,
            "grad_accum_steps": 1,
            "layout": {"total": 2, "chunk": 2},
            "precision": "fp32",
            "backend": "inline",
            "mesh": {"pp": 2, "dp": 2, "tp": 2, "schedule": "gpipe"},
        },
    ),
]


@pytest.mark.parametrize(
    "strategy, world, config, expected", TOPOLOGIES, ids=["ddp", "fsdp", "mesh"]
)
def test_topology_records_are_what_the_stand_alone_engines_returned(
    strategy, world, config, expected
):
    eng = make_engine(build_model(), strategy, world=world, config=config)
    try:
        topo = eng.topology()
    finally:
        eng.close()
    assert topo == expected
    assert list(topo) == list(expected)


def test_one_way_to_run_a_gemm():
    """Intra-op threading is the BLAS's job (``OPENBLAS_NUM_THREADS``):
    no pool, no knob, no second account of worker CPU."""
    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    assert len(fields) == 16 and "intra_op_threads" not in fields
    with pytest.raises(TypeError):
        make_engine(build_model(), "ddp", world=World(1), intra_op_threads=2)
    for name in ("use_gemm_pool", "gemm_pool", "_matmul"):
        assert not hasattr(Module, name)
    assert not hasattr(ProcessBackend, "pop_worker_cpu_s")
    assert "GemmPool" not in repro.__all__ and len(repro.__all__) == 87
