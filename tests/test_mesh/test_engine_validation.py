"""MeshEngine / EngineConfig(mesh=...) construction-time validation."""

from __future__ import annotations

import dataclasses
import multiprocessing
import re

import numpy as np
import pytest

from repro.backend.shm import sweep_segments
from repro.comm.world import World
from repro.core.engine import EngineConfig, make_engine
from repro.elastic.layout import ReductionLayout, natural_layout
from repro.mesh.spec import MeshSpec
from repro.models.vit import VisionTransformer

from .helpers import TINY, build_model


def test_engine_config_mesh_must_be_a_meshspec():
    with pytest.raises(TypeError, match="mesh must be a MeshSpec"):
        EngineConfig(mesh={"pp": 2, "dp": 2, "tp": 2})


def test_mesh_size_must_match_world_size():
    with pytest.raises(ValueError, match="pp \\* dp \\* tp must equal"):
        make_engine(
            build_model(), "ddp", world=World(4),
            config=EngineConfig(mesh=MeshSpec(pp=2, dp=2, tp=2)),
        )


def test_only_ddp_and_full_shard_compose_with_a_mesh():
    with pytest.raises(ValueError, match="cannot run on a mesh"):
        make_engine(
            build_model(), "hybrid_shard", world=World(4),
            config=EngineConfig(mesh=MeshSpec(dp=4), shard_size=2),
        )


def test_tp_must_divide_attention_heads():
    # TINY has 4 heads on both sides; tp=3 cannot shard them.
    with pytest.raises(ValueError, match="does not divide the 4 attention heads"):
        make_engine(
            build_model(), "ddp", world=World(3),
            config=EngineConfig(mesh=MeshSpec(tp=3)),
        )


def test_tp_larger_than_flagged_widths_rejected():
    # tp=8 divides no 4-head attention; the head check fires first and
    # names the constraint.
    with pytest.raises(ValueError, match="attention heads"):
        make_engine(
            build_model(), "ddp", world=World(8),
            config=EngineConfig(mesh=MeshSpec(tp=8)),
        )


def test_pp_beyond_model_ops_rejected():
    # TINY exposes 7 pipeline ops (head, 2 enc, bridge, 2 dec, tail).
    with pytest.raises(ValueError, match="at most pp=7"):
        make_engine(
            build_model(), "ddp", world=World(8),
            config=EngineConfig(mesh=MeshSpec(pp=8)),
        )


def test_pp_needs_a_pipeline_capable_model():
    vit = VisionTransformer(TINY.encoder, rng=np.random.default_rng(0))
    assert not hasattr(vit, "pipeline_ops")
    with pytest.raises(TypeError, match="pipeline_ops"):
        make_engine(
            vit, "ddp", world=World(2),
            config=EngineConfig(mesh=MeshSpec(pp=2)),
        )


def test_process_backend_refuses_a_pipeline_before_starting_workers():
    with pytest.raises(ValueError, match="backend='inline'"):
        make_engine(
            build_model(), "ddp", world=World(4),
            config=EngineConfig(mesh=MeshSpec(pp=2, dp=2), backend="process"),
        )
    assert multiprocessing.active_children() == []
    assert sweep_segments() == []


def test_mesh_engine_is_fp32_only():
    with pytest.raises(ValueError, match="fp32-only"):
        make_engine(
            build_model(), "ddp", world=World(2),
            config=EngineConfig(mesh=MeshSpec(dp=2), precision="bf16"),
        )


def test_shard_size_conflicting_with_dp_rejected():
    with pytest.raises(ValueError, match="conflicts with the mesh dp axis"):
        make_engine(
            build_model(), "full_shard", world=World(4),
            config=EngineConfig(mesh=MeshSpec(dp=4), shard_size=2),
        )


def test_unknown_dp_strategy_rejected():
    with pytest.raises(ValueError, match="cannot run on a mesh"):
        make_engine(
            build_model(), "shard_grad_op", world=World(2),
            config=EngineConfig(mesh=MeshSpec(dp=2)),
        )


def test_mesh_layout_is_single_stage_over_dp_times_k():
    # The mesh's layout is the dp row's over the dp group.
    for strategy in ("DDP", "FULL_SHARD"):
        assert natural_layout(strategy, 4, None, 2) == ReductionLayout(total=8, chunk=8)
    # pp/tp do not enter the layout at all.
    eng = None
    try:
        eng = make_engine(
            build_model(), "ddp", world=World(4),
            config=EngineConfig(mesh=MeshSpec(pp=2, tp=2), grad_accum_steps=3),
        )
        assert eng.layout == ReductionLayout(total=3, chunk=3)
    finally:
        if eng is not None:
            eng.close()


def test_explicit_matching_reduction_layout_accepted():
    eng = make_engine(
        build_model(), "ddp", world=World(2),
        config=EngineConfig(
            mesh=MeshSpec(dp=2), grad_accum_steps=2,
            reduction_layout=ReductionLayout(total=4, chunk=4),
        ),
    )
    try:
        assert eng.layout.single_stage
    finally:
        eng.close()


def test_reduction_layout_total_mismatch_rejected():
    with pytest.raises(ValueError, match="supplies 4"):
        make_engine(
            build_model(), "ddp", world=World(2),
            config=EngineConfig(
                mesh=MeshSpec(dp=2), grad_accum_steps=2,
                reduction_layout=ReductionLayout(total=8, chunk=8),
            ),
        )


def test_chunked_reduction_layout_rejected_on_a_mesh():
    with pytest.raises(ValueError, match="single stage"):
        make_engine(
            build_model(), "full_shard", world=World(2),
            config=EngineConfig(
                mesh=MeshSpec(dp=2), grad_accum_steps=2,
                reduction_layout=ReductionLayout(total=4, chunk=2),
            ),
        )


def test_frozen_config_replace_round_trips_through_make_engine():
    base = EngineConfig(mesh=MeshSpec(dp=2))
    bumped = dataclasses.replace(base, grad_accum_steps=2)
    eng = make_engine(build_model(), "ddp", world=World(2), config=bumped)
    try:
        assert eng.config.mesh == MeshSpec(dp=2)
        assert eng.grad_accum_steps == 2
        assert eng.data_parallel_size == 2
    finally:
        eng.close()


def test_wrong_microbatch_count_message_states_its_own_arithmetic():
    # world=4 but dp=2: the requirement is rounds x dp, and the message
    # multiplies by the same number the check uses.
    eng = make_engine(
        build_model(), "ddp", world=World(4),
        config=EngineConfig(mesh=MeshSpec(dp=2, tp=2)),
    )
    try:
        with pytest.raises(ValueError, match="microbatches") as err:
            eng.train_step([None] * 4, lambda m, b: 0.0)
    finally:
        eng.close()
    need, rounds, ranks, got = map(int, re.findall(r"\d+", str(err.value)))
    assert "x 2 rank(s)" in str(err.value)
    assert (need, rounds * ranks, got) == (2, 2, 4)
