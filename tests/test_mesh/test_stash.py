"""Inline pipeline stages stash activations: one forward per (stage, micro).

The engine parks an in-flight micro's layer caches (and the workspace
lane holding the cached arrays) instead of recomputing the stage's
forward before its backward. These tests pin the work count, the
in-flight peak the memory model assumes, failure cleanup, and
composition with block-level checkpointing.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.comm.collectives import SimComm
from repro.comm.faults import CollectiveError, FaultPlan, FaultSpec, RetryPolicy
from repro.comm.world import World
from repro.core.engine import EngineConfig, make_engine
from repro.mesh.spec import MeshSpec
from repro.models.blocks import TransformerBlock
from repro.models.mae import MaskedAutoencoder
from repro.models.workspace import Workspace

from .helpers import (
    TINY,
    assert_states_equal,
    mae_step,
    mesh_engine,
    oracle_engine,
    run_steps,
    tiny_micros,
)


class _SpyOp:
    """Delegating pipeline-op proxy that reports each forward/backward."""

    def __init__(self, op, index: int, on_call):
        self._op = op
        self._index = index
        self._on_call = on_call

    def forward(self, x, ctx):
        self._on_call("fwd", self._index)
        return self._op.forward(x, ctx)

    def backward(self, d, ctx):
        self._on_call("bwd", self._index)
        return self._op.backward(d, ctx)

    def __getattr__(self, name):
        return getattr(self._op, name)


def _spy(engine, on_call) -> None:
    engine._ops[:] = [_SpyOp(op, i, on_call) for i, op in enumerate(engine._ops)]


def _stage_of(engine, op_index: int) -> int:
    return next(
        s for s, (a, b) in enumerate(engine._stage_bounds) if a <= op_index < b
    )


@functools.lru_cache(maxsize=None)
def _oracle(k: int, steps: int = 2):
    return run_steps(oracle_engine(k), k, steps=steps)


# -- (a) one forward per (stage, micro) ---------------------------------------


@pytest.mark.parametrize("workspace", [False, True], ids=["no-ws", "ws"])
@pytest.mark.parametrize("pp", [2, 4])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
def test_each_op_runs_forward_once_per_micro(schedule, k, pp, workspace):
    eng = mesh_engine(MeshSpec(pp=pp, schedule=schedule), "ddp", k=k)
    if workspace:
        eng.model.use_workspace(Workspace())
    calls: dict[tuple[str, int], int] = {}

    def count(kind, index):
        calls[kind, index] = calls.get((kind, index), 0) + 1

    _spy(eng, count)
    steps = 2
    losses, state = run_steps(eng, k, steps=steps)
    n_ops = len(eng._ops)
    assert calls == {
        (kind, i): k * steps for kind in ("fwd", "bwd") for i in range(n_ops)
    }
    # ... and the single forward is the right one: the trajectory is
    # the oracle's, with and without pooled (lane-switched) buffers.
    want_losses, want_state = _oracle(k)
    assert losses == want_losses
    assert_states_equal(state, want_state)


# -- (b) in-flight peak and pool growth ---------------------------------------


@pytest.mark.parametrize(
    "schedule,k,pp",
    [("1f1b", 5, 2), ("1f1b", 5, 4), ("1f1b", 2, 4), ("gpipe", 5, 2), ("gpipe", 3, 4)],
)
def test_live_micros_per_stage_match_the_memory_model(schedule, k, pp):
    eng = mesh_engine(MeshSpec(pp=pp, schedule=schedule), "ddp", k=k)
    ws = Workspace()
    eng.model.use_workspace(ws)
    peak = [0] * pp
    first_op = {a: s for s, (a, _) in enumerate(eng._stage_bounds)}

    def sample(kind, index):
        # At a stage's forward every other in-flight micro is parked.
        if kind == "fwd" and index in first_op:
            s = first_op[index]
            peak[s] = max(peak[s], len(eng._stash[s]) + 1)

    _spy(eng, sample)
    try:
        eng.train_step(tiny_micros(k, seed=50), mae_step)
        want = [
            min(k, pp - s) if schedule == "1f1b" else k for s in range(pp)
        ]
        assert peak == want
        # The buffer pool grows to the schedule's in-flight peak, not k.
        assert ws.n_lanes() == max(want)
        buffers, misses = ws.n_buffers(), ws.misses
        eng.train_step(tiny_micros(k, seed=51), mae_step)
        assert (ws.n_buffers(), ws.misses) == (buffers, misses)
    finally:
        eng.close()


def test_the_last_1f1b_stage_never_parks():
    # bwd(s, j) directly follows fwd(s, j) there: take/put is skipped.
    eng = mesh_engine(MeshSpec(pp=2, schedule="1f1b"), "ddp", k=3)
    parked_on_last = []

    def sample(kind, index):
        if _stage_of(eng, index) == 1:
            parked_on_last.append(len(eng._stash[1]))

    _spy(eng, sample)
    try:
        eng.train_step(tiny_micros(3, seed=50), mae_step)
    finally:
        eng.close()
    assert parked_on_last and not any(parked_on_last)


# -- (c) a failed step leaks nothing ------------------------------------------


def _assert_clean(eng, ws) -> None:
    assert all(not parked for parked in eng._stash)
    assert ws._bufs is ws._lanes[0]
    for m in eng.model.modules():
        assert all(getattr(m, a) is None for a in m._cache_attrs)


def _two_steps_with_a_failure(eng, ws, exc_type):
    """Step 0, a failing attempt at step 1, then step 1 again."""
    try:
        losses = [eng.train_step(tiny_micros(4, seed=50), mae_step)]
        with pytest.raises(exc_type):
            eng.train_step(tiny_micros(4, seed=51), mae_step)
        _assert_clean(eng, ws)
        assert eng.step_count == 1
        # The outbound sets and (full_shard) the reduce's in-place targets
        # persist across steps: whatever the failed attempt left in them —
        # here made as bad as possible — must be rewritten, never read.
        stale = [b for row in eng._outbound for bufs in row for b in bufs]
        stale += [s.grad for shards in getattr(eng, "_shards", []) for s in shards]
        for buf in stale:
            buf.fill(np.nan)
        losses.append(eng.train_step(tiny_micros(4, seed=51), mae_step))
        state = {n: np.array(v) for n, v in eng.model.state_dict().items()}
    finally:
        eng.close()
    return losses, state


def _never_failed(strategy: str):
    eng = mesh_engine(MeshSpec(pp=2, dp=2, schedule="1f1b"), strategy, k=2)
    eng.model.use_workspace(Workspace())
    return run_steps(eng, 4, steps=2)


@pytest.mark.parametrize(
    "strategy,spec,policy",
    [
        ("ddp", FaultSpec("all_reduce", "transient", call_index=1), None),
        ("full_shard", FaultSpec("reduce_scatter", "transient", call_index=5), None),
        # Mid-phase with the retry budget exhausted: units 0-1 of step 1
        # are already reduced in place, units 2-4 still hold step 0's.
        (
            "full_shard",
            FaultSpec("reduce_scatter", "corrupt", call_index=7, times=2),
            RetryPolicy(max_retries=1),
        ),
    ],
)
def test_dp_collective_failure_leaves_no_stash(strategy, spec, policy):
    plan = FaultPlan([spec])
    eng = mesh_engine(
        MeshSpec(pp=2, dp=2, schedule="1f1b"),
        strategy,
        k=2,
        comm=SimComm(fault_plan=plan),
        retry_policy=policy,
    )
    ws = Workspace()
    eng.model.use_workspace(ws)
    losses, state = _two_steps_with_a_failure(eng, ws, CollectiveError)
    assert plan.pending() == 0
    want_losses, want_state = _never_failed(strategy)
    assert losses == want_losses
    assert_states_equal(state, want_state)


def test_exception_inside_an_op_leaves_no_stash():
    eng = mesh_engine(MeshSpec(pp=2, dp=2, schedule="1f1b"), "full_shard", k=2)
    ws = Workspace()
    eng.model.use_workspace(ws)
    seen = {"bwd0": 0}

    def fail_once(kind, index):
        # Stage 0's first backward of step 1 (dp rank 1): micro 1 of that
        # rank is parked and rank 0's gradients are already outbound.
        if kind == "bwd" and index == 0:
            seen["bwd0"] += 1
            if seen["bwd0"] == 4 + 3:
                assert eng._stash[0]
                raise RuntimeError("injected op failure")

    _spy(eng, fail_once)
    losses, state = _two_steps_with_a_failure(eng, ws, RuntimeError)
    want_losses, want_state = _never_failed("full_shard")
    assert losses == want_losses
    assert_states_equal(state, want_state)


# -- (d) composes with block-level checkpointing ------------------------------


def test_checkpointed_blocks_stay_bit_identical_and_stash_only_their_input():
    k = 2
    model = MaskedAutoencoder(TINY, rng=np.random.default_rng(7), checkpoint=True)
    eng = make_engine(
        model,
        "ddp",
        world=World(2),
        config=EngineConfig(
            mesh=MeshSpec(pp=2, schedule="1f1b"), grad_accum_steps=k
        ),
    )
    model.use_workspace(Workspace())
    inside_block = {
        id(m)
        for blk in model.modules()
        if isinstance(blk, TransformerBlock)
        for m in blk.modules()
        if m is not blk
    }
    parked_seen = []

    def inspect(kind, index):
        for s, parked in enumerate(eng._stash):
            for caches in parked.values():
                for layer, vals in zip(eng._stage_layers[s], caches):
                    if id(layer) in inside_block:
                        assert all(v is None for v in vals)
                    elif isinstance(layer, TransformerBlock):
                        parked_seen.append(vals[0] is not None)

    _spy(eng, inspect)
    losses, state = run_steps(eng, k)
    assert parked_seen and all(parked_seen)
    want_losses, want_state = _oracle(k)
    assert losses == want_losses
    assert_states_equal(state, want_state)
