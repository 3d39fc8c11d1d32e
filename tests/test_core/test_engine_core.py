"""One EngineCore: a strategy is a row, the engine is one class.

Lifecycle, retried/telemetered collectives, checkpoint state, the step
skeleton *and the whole data-parallel axis* (storage, gathers, reduce)
live once in ``repro.core.engine_core`` and run from the strategy table
in ``repro.core.sharding``; a copy growing back — in the mesh subclass,
in the process worker, or as a strategy ladder in a perf model — fails
here. The topology records are pinned to the literals the three
stand-alone engines returned before they shared a core. One
gradient-storage contract holds for every row: backward writes into
flat buffers, the reduce lands where the optimizer reads, and a skipped
dynamic-scale step leaves the trajectory untouched. The path *through*
the engine is written once too: one pretraining loop above it, one rank
body at the backend seam, one resident set of outbound rows below it.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pickle
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.comm.collectives
import repro.core.engine_core
from repro.backend import InlineBackend, ProcessBackend
from repro.backend.process import _worker_main
from repro.comm.world import World
from repro.core.engine import EngineConfig, make_engine
from repro.core.engine_core import EngineCore
from repro.core.sharding import declare_storage
from repro.core.simclr_trainer import SimCLRPretrainer
from repro.core.trainer import MAEPretrainer, Pretrainer
from repro.mesh.engine import MeshEngine
from repro.mesh.spec import MeshSpec
from repro.models.module import Module
from repro.telemetry import RecordingSink, TelemetryBus

from tests.test_mesh.helpers import build_model, mae_step, tiny_micros

SRC = Path(repro.__file__).parent
ENGINES = (MeshEngine,)

#: Written once, in the core.
CORE_OWNED = (
    "_collective",
    "close",
    "lr",
    "backend",
    "state_dict",
    "load_state_dict",
    "train_step",
    "_materialize_params",
    "_reduce_gradients",
    "_reduce_stage",
    "_gather_units",
    "_mean_reduce",
)


@pytest.mark.parametrize("cls", ENGINES)
def test_engines_are_layouts_over_the_core(cls):
    assert issubclass(cls, EngineCore)
    regrown = [name for name in CORE_OWNED if name in vars(cls)]
    assert not regrown, f"{cls.__name__} re-defines core-owned {regrown}"
    for name in CORE_OWNED:
        assert name in vars(EngineCore)


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def test_one_engine_class_one_reduce_one_materialize():
    """DDP and the four FSDP strategies are ``EngineCore`` itself; the
    dp axis is written once under ``src/repro``."""
    for gone in ("ddp", "fsdp"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.core.{gone}")
    for name in ("DDPEngine", "FSDPEngine"):
        assert not hasattr(repro, name) and not hasattr(repro.core, name)
    defined = [
        (rel, node.name)
        for rel, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_reduce_gradients", "_materialize_params")
    ]
    assert sorted(defined) == [
        ("core/engine_core.py", "_materialize_params"),
        ("core/engine_core.py", "_reduce_gradients"),
    ]
    for strategy in ("ddp", "no_shard", "full_shard", "shard_grad_op", "HYBRID_2GPUs"):
        assert type(make_engine(build_model(), strategy, world=World(4))) is EngineCore
    assert inspect.signature(make_engine).parameters.keys() == {
        "model", "strategy", "world", "config", "overrides",
    }


#: Every comparison against a ``ShardingStrategy`` member outside the
#: strategy table, and why its *code* (not a fact about the strategy)
#: differs. Anything else is a ladder growing back: read the row.
STRATEGY_COMPARISONS = {
    # The dp axis of a mesh runs two rows; its refusal names them.
    ("mesh/engine.py", "DDP", "FULL_SHARD"),
    # The simulator's DDP bucket-readiness graph: buckets attach to the
    # backward's readiness order, a different task graph, not a flag.
    ("perf/schedule.py", "DDP"),
    # The fitted ``noshard_comm_inflation`` constant (EXPERIMENTS.md).
    ("perf/schedule.py", "NO_SHARD"),
}


def test_strategy_comparisons_outside_the_table_are_the_documented_ones():
    members = set(repro.ShardingStrategy.__members__)
    found = []
    for rel, tree in _trees():
        if rel == "core/sharding.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            names = sorted(
                sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and sub.attr in members
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "ShardingStrategy"
            )
            if names:
                found.append((rel, *names))
    assert len(found) <= 6
    assert sorted(found) == sorted(STRATEGY_COMPARISONS)


def test_worker_and_parent_declare_storage_through_one_function():
    assert repro.core.engine_core.declare_storage is declare_storage
    # The worker imports lazily (backend <-> core import cycle), so pin
    # the name it calls and the absence of a hand-rolled layout.
    names = set(_worker_main.__code__.co_names)
    assert "declare_storage" in names
    assert not names & {"default_wrap_units", "install_grad_views", "FlatUnit"}
    source = (SRC / "backend" / "process.py").read_text()
    assert 'spec["mode"]' not in source and "self.mode" not in source


@pytest.mark.parametrize(
    "strategy", ["ddp", "no_shard", "full_shard", "shard_grad_op", "HYBRID_2GPUs"]
)
def test_a_worker_lays_its_replica_out_as_the_parent_did(strategy):
    """What the spec ships (strategy, shard size, gradient groups) makes
    ``declare_storage`` rebuild the parent's buffers on the replica a
    worker unpickles, and a process step equals the inline step."""
    micros = tiny_micros(2)
    eng = make_engine(build_model(), strategy, world=World(2), backend="process")
    try:
        replica = pickle.loads(eng._backend._model_blob())
        twin = declare_storage(replica, eng.strategy, eng.shard_size, eng.grad_groups)
        sizes = [buf.size for buf in eng.grad_buffers]
        assert [buf.size for buf in twin.grad_buffers] == sizes
        assert [a.size for a in twin.arrays()] == [a.size for a in eng.storage.arrays()]
        loss = eng.train_step(micros, mae_step)
    finally:
        eng.close()
    inline = make_engine(build_model(), strategy, world=World(2))
    assert inline.train_step(micros, mae_step) == loss
    for got, want in zip(eng.model.parameters(), inline.model.parameters(), strict=True):
        assert got.data.tobytes() == want.data.tobytes()


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
    assert len(fields) == 14 and "intra_op_threads" not in fields
    # Options that changed nothing are not options (PR 21).
    assert not fields & {"backward_prefetch", "check_replicas"}
    with pytest.raises(TypeError):
        make_engine(build_model(), "ddp", world=World(1), intra_op_threads=2)
    for name in ("use_gemm_pool", "gemm_pool", "_matmul"):
        assert not hasattr(Module, name)
    assert not hasattr(ProcessBackend, "pop_worker_cpu_s")
    assert "GemmPool" not in repro.__all__ and len(repro.__all__) == 83


# -- one gradient-storage contract ---------------------------------------------

LAYOUTS = [
    ("ddp", World(2), EngineConfig(bucket_cap_bytes=16 * 1024)),
    ("NO_SHARD", World(2), EngineConfig()),
    ("full_shard", World(2), EngineConfig()),
    ("HYBRID_2GPUs", World(4), EngineConfig(grad_accum_steps=2)),
    ("ddp", World(4), EngineConfig(mesh=MeshSpec(pp=2, dp=2, tp=1))),
]
LAYOUT_IDS = ["ddp", "no_shard", "full_shard", "hybrid", "mesh-ddp"]


@pytest.mark.parametrize("strategy, world, config", LAYOUTS, ids=LAYOUT_IDS)
def test_gradients_are_views_of_the_flat_buffers_the_reduce_fills(
    strategy, world, config
):
    eng = make_engine(build_model(), strategy, world=world, config=config)
    try:
        params = eng.model.parameters()
        if eng.units is None:
            groups = [[params[i] for i in g] for g in eng.grad_groups]
        else:
            groups = [unit.params for unit in eng.units]
        if eng.kind == "ddp":
            assert len(eng.grad_groups) > 1
        # Every p.grad views exactly one buffer, and each buffer's
        # members tile it once, end to end, in the declared order.
        assert sorted(id(p) for g in groups for p in g) == sorted(map(id, params))
        for buf, members in zip(eng.grad_buffers, groups, strict=True):
            buf[...] = np.arange(buf.size)
            offset = 0
            for p in members:
                shared = [b for b in eng.grad_buffers if np.shares_memory(p.grad, b)]
                assert len(shared) == 1 and shared[0] is buf
                assert p.grad.shape == p.data.shape
                run = np.arange(offset, offset + p.size)
                np.testing.assert_array_equal(p.grad.reshape(-1), run)
                offset += p.size
            assert offset <= buf.size  # only a unit's dp padding may trail
        # The arrays the reduce returns are the ones the optimizer reads:
        # nothing is installed, scattered or re-pointed afterwards.
        returned = []
        reduce = eng._reduce_gradients
        eng._reduce_gradients = lambda grads: returned.extend(reduce(grads)) or returned
        before = [p.grad for p in params]
        eng.train_step(tiny_micros(eng.grad_accum_steps * eng.data_parallel_size), mae_step)
        assert all(p.grad is g for p, g in zip(params, before))
        slots = eng.optimizer.params
        assert sum(r.size for r in returned) >= sum(q.grad.size for q in slots)
        for q in slots:
            assert sum(np.shares_memory(q.grad, r) for r in returned) == 1
        if eng.units is None:
            assert all(r is b for r, b in zip(returned, eng.grad_buffers, strict=True))
        else:
            assert all(r is q.grad for r, q in zip(returned, slots, strict=True))
    finally:
        eng.close()


def test_the_copying_paths_are_gone():
    for cls in (EngineCore, *ENGINES):
        for name in ("_install_gradients", "_scatter_grads", "_grad_storage"):
            assert not hasattr(cls, name), f"{cls.__name__}.{name} grew back"
    assert "_reduce" not in vars(repro.comm.collectives)


def _trajectory_state(eng) -> list[np.ndarray]:
    opt = eng.optimizer
    arrays = [a for slot in opt.state for a in slot.values()] + list(opt.master or ())
    return [a.copy() for a in arrays] + [p.data.copy() for p in eng.model.parameters()]


@pytest.mark.parametrize("precision", ["fp32", "bf16"])
@pytest.mark.parametrize("strategy", ["ddp", "full_shard"])
def test_a_skipped_dynamic_scale_step_leaves_the_trajectory_untouched(
    strategy, precision
):
    def engine(bus=None):
        cfg = EngineConfig(
            precision=precision, loss_scale=256.0, dynamic_loss_scale=True, telemetry=bus
        )
        return make_engine(build_model(), strategy, world=World(2), config=cfg)

    sink = RecordingSink()
    eng, clean = engine(TelemetryBus(sink)), engine()
    try:
        good = [tiny_micros(2, seed=s) for s in (1, 2)]
        eng.train_step(good[0], mae_step)
        clean.train_step(good[0], mae_step)
        bad = tiny_micros(2, seed=9)
        bad[1][0][0, 0, 0, 0] = np.inf  # one non-finite micro, on rank 1
        before, t = _trajectory_state(eng), eng.optimizer.t
        with np.errstate(all="ignore"):
            eng.train_step(bad, mae_step)
        # Skipped: nothing the optimizer owns moved, the scale backed off.
        for got, want in zip(_trajectory_state(eng), before, strict=True):
            assert got.tobytes() == want.tobytes()
        assert eng.optimizer.t == t and eng.step_count == 2
        assert eng.scaler.scale == 128.0 and clean.scaler.scale == 256.0
        skipped = [e for e in sink.events if e.name == "precision.skipped_steps"]
        assert [e.value for e in skipped] == [1]
        # The non-finite mean left in the gradient arrays is overwritten,
        # never read: the next step equals an engine that never saw it.
        eng.train_step(good[1], mae_step)
        clean.train_step(good[1], mae_step)
        pairs = zip(_trajectory_state(eng), _trajectory_state(clean), strict=True)
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()
    finally:
        eng.close()
        clean.close()


# -- the step path is written once ---------------------------------------------


def _functions():
    for rel, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                yield rel, node


def test_one_pretraining_loop():
    loops = [
        rel
        for rel, fn in _functions()
        if rel.startswith("core/")
        and fn.name == "run"
        and any(getattr(n, "attr", None) == "train_step" for n in ast.walk(fn))
    ]
    assert loops == ["core/trainer.py"]
    for objective in (MAEPretrainer, SimCLRPretrainer):
        assert issubclass(objective, Pretrainer)
        assert not {"run", "__init__"} & vars(objective).keys()


def test_one_rank_body():
    assert "run_rank" in _worker_main.__code__.co_names
    assert "run_rank" in InlineBackend.run_round.__code__.co_names
    gone = {"_collect_rank_grads", "write_grads", "_zero_local_grads"}
    assert not [(rel, fn.name) for rel, fn in _functions() if fn.name in gone]


RESIDENT = [
    ("ddp", World(1), EngineConfig()),
    ("ddp", World(2), EngineConfig(grad_accum_steps=2)),
    ("full_shard", World(2), EngineConfig(grad_accum_steps=2)),
    ("HYBRID_2GPUs", World(4), EngineConfig()),
    ("full_shard", World(4), EngineConfig(mesh=MeshSpec(pp=2, dp=2), grad_accum_steps=2)),
]


@pytest.mark.parametrize(
    "strategy, world, config", RESIDENT, ids=["ddp1", "ddp2k2", "fs2k2", "hybrid", "mesh"]
)
def test_the_reduce_reads_the_same_resident_rows_every_step(strategy, world, config):
    eng = make_engine(build_model(), strategy, world=world, config=config)
    k, dp = eng.grad_accum_steps, eng.data_parallel_size
    rows = eng._outbound
    flat = [a for round_ in rows for row in round_ for a in row]
    assert len(flat) == k * dp * len(eng.grad_buffers)
    assert not any(np.shares_memory(a, g) for a in flat for g in eng.grad_buffers)
    where = [a.__array_interface__["data"][0] for a in flat]
    handed = []
    reduce = eng._reduce_gradients
    eng._reduce_gradients = lambda grads: handed.append(grads) or reduce(grads)
    for step in range(3):
        eng.train_step(tiny_micros(k * dp, seed=step), mae_step)
        now = [a for round_ in eng._outbound for row in round_ for a in row]
        assert eng._outbound is rows and handed[step] is rows
        assert all(a is b for a, b in zip(now, flat, strict=True))
        assert [a.__array_interface__["data"][0] for a in now] == where
