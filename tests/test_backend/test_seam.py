"""The backend seam: one staging block, one failure contract, one channel.

Both backends hand the engine rows it keeps for its life and fill them
through the same rank body, so (a) a process engine's rows are arena
views holding the inline rows' bytes, (b) whatever a failed step left in
them is rewritten, never read, and (c) a worker's telemetry rides its
round reply — the recorded stream is pinned to the sequence the shared
event rings used to deliver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import WorkerStepError
from repro.comm.collectives import SimComm
from repro.comm.faults import CollectiveError, FaultPlan, FaultSpec, RetryPolicy
from repro.comm.world import World
from repro.core.engine import make_engine
from repro.mesh.spec import MeshSpec
from repro.telemetry import RecordingSink, TelemetryBus

from tests.test_mesh.helpers import (
    assert_states_equal,
    build_model,
    mae_step,
    marked_step,
    mesh_engine,
    run_steps,
    sink_probe_step,
    tiny_micros,
)

BACKENDS = ("inline", "process")


def _flat(eng) -> list[np.ndarray]:
    return [a for round_ in eng._outbound for row in round_ for a in row]


# -- (a) one staging block ------------------------------------------------------


@pytest.mark.parametrize("strategy, k", [("ddp", 2), ("full_shard", 1)])
def test_process_rows_are_arena_views_holding_the_inline_bytes(strategy, k):
    micros = tiny_micros(2 * k)
    engines = {
        b: make_engine(build_model(), strategy, world=World(2), backend=b, grad_accum_steps=k)
        for b in BACKENDS
    }
    try:
        proc = engines["process"]
        arena = proc._backend._arena
        segment = arena.view(0, (arena.size,), np.uint8)
        rows = proc._outbound
        for eng in engines.values():
            eng.train_step(micros, mae_step)
        assert proc._outbound is rows
        assert all(np.shares_memory(a, segment) for a in _flat(proc))
        assert not any(np.shares_memory(a, segment) for a in _flat(engines["inline"]))
        for got, want in zip(_flat(proc), _flat(engines["inline"]), strict=True):
            assert got.tobytes() == want.tobytes()
        del segment
    finally:
        for eng in engines.values():
            eng.close()
    assert proc._outbound == []  # the rows went with the arena


# -- (b) a failed step's leftovers are rewritten, never read --------------------


def _two_steps_with_a_failure(eng, failing_micros, exc_type):
    """Step 0, a failing attempt at step 1, then step 1 again — the core
    path's twin of ``test_stash.py``'s driver."""
    try:
        losses = [eng.train_step(tiny_micros(4, seed=50), marked_step)]
        with pytest.raises(exc_type):
            eng.train_step(failing_micros, marked_step)
        assert eng.step_count == 1
        for buf in _flat(eng) + [s.grad for shards in eng._shards for s in shards]:
            buf.fill(np.nan)
        losses.append(eng.train_step(tiny_micros(4, seed=51), marked_step))
        state = {n: np.array(v) for n, v in eng.model.state_dict().items()}
    finally:
        eng.close()
    return losses, state


def _never_failed():
    return run_steps(make_engine(build_model(), "full_shard", world=World(2), grad_accum_steps=2), 4)


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_exhausted_retry_budget_leaves_nothing_behind(backend):
    # Mid-reduce: units 0-1 of step 1 are reduced in place, 2-4 hold step 0's.
    plan = FaultPlan([FaultSpec("reduce_scatter", "corrupt", call_index=7, times=2)])
    eng = make_engine(
        build_model(),
        "full_shard",
        world=World(2),
        backend=backend,
        grad_accum_steps=2,
        comm=SimComm(fault_plan=plan),
        retry_policy=RetryPolicy(max_retries=1),
    )
    losses, state = _two_steps_with_a_failure(eng, tiny_micros(4, seed=51), CollectiveError)
    assert plan.pending() == 0
    want_losses, want_state = _never_failed()
    assert losses == want_losses
    assert_states_equal(state, want_state)


@pytest.mark.parametrize("backend, exc_type", zip(BACKENDS, (ValueError, WorkerStepError)))
def test_a_raising_step_fn_leaves_nothing_behind(backend, exc_type):
    eng = make_engine(
        build_model(), "full_shard", world=World(2), backend=backend, grad_accum_steps=2
    )
    # Round 1's rank 1 raises: round 0 and rank 0 have written their rows.
    failing = tiny_micros(4, seed=51)
    failing[3][1][0, 0] = -1.0
    losses, state = _two_steps_with_a_failure(eng, failing, exc_type)
    want_losses, want_state = _never_failed()
    assert losses == want_losses
    assert_states_equal(state, want_state)


# -- (c) one channel ------------------------------------------------------------

GATHER = ("span", "comm.all_gather", 0, ("bytes",), None)
SCATTER = ("span", "comm.reduce_scatter", 0, ("bytes",), None)
DP_GATHER = ("span", "comm.all_gather", 0, ("axis", "bytes"), None)
DP_SCATTER = ("span", "comm.reduce_scatter", 0, ("axis", "bytes"), None)
COMPUTE = ("span", "compute.fwd_bwd", 0, (), None)
OPTIM = ("span", "optim.step", 0, (), None)


def _worker(rank: int, tp_spans: int = 0) -> list[tuple]:
    return [
        *[("span", "comm.all_gather", 1, ("axis", "bytes", "rank"), rank)] * tp_spans,
        ("span", "worker.fwd_bwd", 0, ("rank", "round"), rank),
        ("gauge", "worker.cpu_s", 0, ("rank", "round"), rank),
    ]


#: One traced step, as recorded before workers' events rode the reply
#: (``(kind, name, depth, sorted attr keys, rank)``, taken on PR 22).
FULL_SHARD_W2 = [*[GATHER] * 5, *_worker(0), *_worker(1), COMPUTE, *[GATHER] * 5, *[SCATTER] * 5, OPTIM]
MESH_TP2_DP2 = [
    *[DP_GATHER] * 5,
    *_worker(0, tp_spans=32),
    *_worker(1, tp_spans=32),
    COMPUTE,
    *[DP_GATHER] * 5,
    *[DP_SCATTER] * 5,
    OPTIM,
]


def _traced_step(make) -> list[tuple]:
    bus = TelemetryBus(RecordingSink())
    eng = make(bus)
    try:
        eng.train_step(tiny_micros(2), mae_step)
    finally:
        eng.close()
    return [
        (e.kind, e.name, e.depth, tuple(sorted(e.attrs)), e.attrs.get("rank"))
        for e in bus.sink.events
    ]


def test_a_traced_process_step_records_the_sequence_the_rings_delivered():
    got = _traced_step(
        lambda bus: make_engine(
            build_model(), "full_shard", world=World(2), backend="process", telemetry=bus
        )
    )
    assert got == FULL_SHARD_W2


def test_the_workers_tp_spans_ride_along():
    spec = MeshSpec(dp=2, tp=2)
    got = _traced_step(lambda bus: mesh_engine(spec, "full_shard", backend="process", telemetry=bus))
    assert got == MESH_TP2_DP2
    inline = _traced_step(lambda bus: mesh_engine(spec, "full_shard", telemetry=bus))
    assert sum(e[2] == 1 for e in inline) == sum(e[2] == 1 for e in got) == 64


def test_untraced_rounds_ship_no_events_and_every_round_empties_the_sink():
    eng = mesh_engine(MeshSpec(dp=2, tp=2), "full_shard", backend="process")
    replies = []
    recv = eng._backend._recv
    eng._backend._recv = lambda rank: replies.append(recv(rank)) or replies[-1]
    micros = tiny_micros(2)
    try:
        # The tp context records on the worker's bus whether or not the
        # parent listens: were a round's events kept, the next would see them.
        assert [eng.train_step(micros, sink_probe_step) for _ in range(3)] == [0.0] * 3
        assert [(tag, events) for tag, _, _, events in replies] == [("ok", ())] * 6
        del replies[:]
        # A raising step_fn still answers, and its sink is emptied too.
        failing = tiny_micros(2)
        failing[1][1][0, 0] = -1.0
        with pytest.raises(WorkerStepError):
            eng.train_step(failing, marked_step)
        ok, err = replies
        assert ok[0] == "ok" and ok[1] == err[1]
        assert err[0] == "err" and "injected step failure" in err[2] and len(err) == 3
        assert eng.train_step(micros, sink_probe_step) == 0.0
    finally:
        eng.close()
