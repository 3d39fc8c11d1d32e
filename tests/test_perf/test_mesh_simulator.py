"""Mesh-aware step simulator: composition, guards, and memory splits."""

from __future__ import annotations

import pytest

from repro.core.config import get_mae_config
from repro.core.sharding import ShardingStrategy
from repro.hardware.frontier import frontier_machine
from repro.mesh.spec import MeshSpec
from repro.perf.memory_model import memory_breakdown
from repro.perf.schedule import PerfParams, pipeline_bubble_fraction
from repro.perf.simulator import StepBreakdown, TrainStepSimulator

MODEL = get_mae_config("vit-3b")


def _sim(nodes: int, spec: MeshSpec | None, **kw) -> TrainStepSimulator:
    return TrainStepSimulator(
        model=MODEL,
        machine=frontier_machine(nodes),
        strategy=ShardingStrategy.FULL_SHARD,
        params=PerfParams(local_batch=8, mesh=spec, **kw),
    )


# -- zero-division guards (regression: degenerate schedules) ---------------


def _degenerate(**overrides) -> StepBreakdown:
    from repro.perf.memory_model import MemoryBreakdown

    base = dict(
        step_time_s=0.0,
        step_time_no_comm_s=0.0,
        io_step_time_s=0.0,
        real_step_time_s=0.0,
        comm_seconds=0.0,
        exposed_comm_seconds=0.0,
        comm_calls=0,
        compute_seconds=0.0,
        local_batch=32,
        memory=MemoryBreakdown(0.0, 0.0, 0.0, 0.0),
        images_per_step=8 * 32,
    )
    base.update(overrides)
    return StepBreakdown(**base)


def test_occupancies_return_zero_for_zero_step_time():
    b = _degenerate()
    assert b.compute_occupancy == 0.0
    assert b.comm_occupancy == 0.0
    assert b.comm_fraction == 0.0


def test_ips_returns_zero_not_inf_for_nonpositive_step_time():
    b = _degenerate()
    assert b.ips == 0.0
    assert b.ips_real == 0.0
    assert b.ips_no_comm == 0.0
    assert b.ips_io == 0.0
    neg = _degenerate(step_time_s=-1.0)
    assert neg.ips == 0.0


def test_nonzero_step_time_still_yields_throughput():
    b = _degenerate(step_time_s=2.0, compute_seconds=1.0)
    assert b.ips == 8 * 32 / 2.0
    assert b.compute_occupancy == pytest.approx(0.5)


# -- mesh validation -------------------------------------------------------


def test_mesh_size_must_match_machine_world():
    with pytest.raises(ValueError, match="ranks"):
        _sim(nodes=2, spec=MeshSpec(dp=8))  # 16 GCDs available


def test_mesh_pp_must_fit_workload_units():
    with pytest.raises(ValueError, match="pp="):
        _sim(nodes=128, spec=MeshSpec(pp=1024, schedule="gpipe"))


# -- mesh composition ------------------------------------------------------


def test_legacy_path_unchanged_without_mesh():
    b = _sim(nodes=4, spec=None).simulate()
    assert b.bubble_fraction == 0.0
    assert b.images_per_step == 32 * 8  # world * local_batch
    assert set(b.axis_comm_seconds) == {"dp"}
    assert b.ips == pytest.approx(32 * 8 / b.step_time_s)


def test_mesh_step_reports_axis_seconds_and_bubble():
    spec = MeshSpec(pp=4, dp=8, tp=4, schedule="1f1b")
    b = _sim(nodes=spec.size // 8, spec=spec, pipeline_micros=8).simulate()
    assert set(b.axis_comm_seconds) == {"tp", "pp", "dp"}
    assert all(v >= 0.0 for v in b.axis_comm_seconds.values())
    assert b.axis_comm_seconds["tp"] > 0.0
    assert b.bubble_fraction == pytest.approx(pipeline_bubble_fraction(8, 4))
    assert b.images_per_step == 8 * 8 * 8  # dp * micros * local_batch
    assert b.ips > 0


def test_bubble_grows_with_pp_at_fixed_micros():
    shallow = _sim(1, MeshSpec(pp=2, dp=4), pipeline_micros=8).simulate()
    deep = _sim(1, MeshSpec(pp=8, dp=1), pipeline_micros=8).simulate()
    assert deep.bubble_fraction > shallow.bubble_fraction > 0.0


def test_tp_shrinks_simulated_memory_footprint():
    flat = _sim(4, MeshSpec(dp=32)).simulate().memory.total
    tp = _sim(4, MeshSpec(tp=8, dp=4)).simulate().memory.total
    assert tp < flat


def test_tp_and_pp_shrink_model_states():
    kw = dict(world_size=32, local_batch=32)
    base = memory_breakdown(MODEL, ShardingStrategy.DDP, mesh=MeshSpec(dp=32), **kw)
    tp = memory_breakdown(MODEL, ShardingStrategy.DDP, mesh=MeshSpec(tp=8, dp=4), **kw)
    pp = memory_breakdown(MODEL, ShardingStrategy.DDP, mesh=MeshSpec(pp=8, dp=4), **kw)
    assert tp.model_states < base.model_states
    assert pp.model_states < base.model_states
    # tp also shards the live block intermediates.
    assert tp.activations < base.activations


def test_schedule_caps_live_microbatch_activations():
    # gpipe keeps all in-flight micro inputs; 1f1b at most pp of them.
    kw = dict(world_size=32, local_batch=32, pipeline_micros=16)
    gpipe = memory_breakdown(
        MODEL, ShardingStrategy.DDP, mesh=MeshSpec(pp=8, dp=4), **kw
    )
    onefonb = memory_breakdown(
        MODEL, ShardingStrategy.DDP, mesh=MeshSpec(pp=8, dp=4, schedule="1f1b"), **kw
    )
    assert onefonb.activations < gpipe.activations


def test_memory_model_rejects_mismatched_mesh():
    with pytest.raises(ValueError, match="disagrees"):
        memory_breakdown(
            MODEL, ShardingStrategy.DDP, world_size=16, mesh=MeshSpec(dp=8)
        )
    with pytest.raises(ValueError, match="pipeline_micros"):
        memory_breakdown(
            MODEL,
            ShardingStrategy.DDP,
            world_size=8,
            mesh=MeshSpec(dp=8),
            pipeline_micros=0,
        )


def test_pipeline_bubble_fraction_validates():
    assert pipeline_bubble_fraction(8, 1) == 0.0
    assert pipeline_bubble_fraction(8, 4) == pytest.approx(3 / 11)
    with pytest.raises(ValueError):
        pipeline_bubble_fraction(0, 4)
    with pytest.raises(ValueError):
        pipeline_bubble_fraction(8, 0)
