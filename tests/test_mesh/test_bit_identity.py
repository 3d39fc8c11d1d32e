"""Differential bit-exactness: every mesh composition vs the oracle.

The oracle is the world-1 DDP engine accumulating all ``k * dp``
microbatches sequentially — already proven bit-identical to every plain
DDP/FSDP world by the accumulation suites. Each test trains several
steps on both engines from identical weights/micros and asserts equal
losses AND bitwise-equal final parameters.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.spec import MeshSpec

from .helpers import assert_states_equal, mesh_engine, oracle_engine, run_steps


def _compare(spec: MeshSpec, strategy: str, k: int = 1, backend: str = "inline"):
    n = k * spec.dp
    oracle_losses, oracle_state = run_steps(oracle_engine(n), n)
    mesh_losses, mesh_state = run_steps(
        mesh_engine(spec, strategy, k=k, backend=backend), n
    )
    np.testing.assert_array_equal(oracle_losses, mesh_losses)
    assert_states_equal(oracle_state, mesh_state)


# -- single-axis compositions ------------------------------------------------


def test_tp_only_matches_oracle():
    _compare(MeshSpec(tp=2), "ddp", k=2)


def test_tp4_matches_oracle():
    _compare(MeshSpec(tp=4), "ddp")


def test_pp_only_gpipe_matches_oracle():
    _compare(MeshSpec(pp=3, schedule="gpipe"), "ddp", k=2)


def test_pp_only_1f1b_matches_oracle():
    _compare(MeshSpec(pp=3, schedule="1f1b"), "ddp", k=2)


def test_dp_only_mesh_matches_oracle():
    # The degenerate mesh must reproduce plain DDP's trajectory too.
    _compare(MeshSpec(dp=2), "ddp", k=2)


def test_dp_only_full_shard_mesh_matches_oracle():
    _compare(MeshSpec(dp=2), "full_shard", k=2)


# -- composed meshes ---------------------------------------------------------


def test_tp_pp_dp_ddp_gpipe_matches_oracle():
    _compare(MeshSpec(pp=2, dp=2, tp=2), "ddp", k=2)


def test_tp_pp_dp_ddp_1f1b_matches_oracle():
    _compare(MeshSpec(pp=2, dp=2, tp=2, schedule="1f1b"), "ddp", k=2)


def test_tp_pp_dp_full_shard_matches_oracle():
    _compare(MeshSpec(pp=2, dp=2, tp=2), "full_shard", k=2)


def test_deep_pipeline_matches_oracle():
    # All 7 ops as their own stage, 1f1b.
    _compare(MeshSpec(pp=7, schedule="1f1b"), "ddp", k=3)


# -- process backend ---------------------------------------------------------


def test_tp_only_process_backend_matches_oracle():
    _compare(MeshSpec(tp=2), "ddp", k=2, backend="process")


def test_dp_tp_full_shard_process_backend_matches_oracle():
    _compare(MeshSpec(dp=2, tp=2), "full_shard", k=2, backend="process")
