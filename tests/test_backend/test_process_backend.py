"""Process backend behavior: differential identity, telemetry, faults.

The inline engines are the numerical oracle: every test here drives the
same model/data through ``backend="inline"`` and ``backend="process"``
and demands bit-equality, or exercises a behavior (worker step failure,
collective retry, checkpoint round-trip, telemetry fan-in) that must
survive the move to real OS processes unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import WorkerStepError
from repro.comm.collectives import SimComm
from repro.comm.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.telemetry import RecordingSink, TelemetryBus

from tests.test_backend.helpers import (
    assert_states_equal,
    build_engine,
    failing_step,
    mae_micros,
    mae_step,
    run_steps,
)


class TestDifferentialIdentity:
    @pytest.mark.parametrize(
        "strategy,world,k,precision",
        [
            ("ddp", 2, 2, "fp32"),
            ("ddp", 1, 1, "bf16"),
            ("full_shard", 2, 1, "fp32"),
            ("shard_grad_op", 2, 2, "bf16"),
            ("no_shard", 2, 1, "bf16"),
        ],
    )
    def test_trajectories_bit_identical(self, strategy, world, k, precision):
        eng_i = build_engine("inline", strategy, world=world, k=k, precision=precision)
        losses_i, state_i = run_steps(eng_i, world, k)
        eng_i.close()
        eng_p = build_engine("process", strategy, world=world, k=k, precision=precision)
        losses_p, state_p = run_steps(eng_p, world, k)
        eng_p.close()
        assert losses_i == losses_p
        assert_states_equal(state_i, state_p)


class TestWorkerStepFailure:
    def test_step_fn_error_surfaces_with_worker_traceback(self):
        eng = build_engine("process", world=2)
        data = mae_micros(2)
        with pytest.raises(WorkerStepError) as exc:
            eng.train_step(data, failing_step)
        assert "injected step failure" in exc.value.worker_traceback
        # Workers survive a step_fn failure: the next good step must
        # match a clean engine's first step (params were never touched).
        loss_after = eng.train_step(data, mae_step)
        eng.close()
        clean = build_engine("process", world=2)
        loss_clean = clean.train_step(data, mae_step)
        clean.close()
        assert loss_after == loss_clean

    def test_unpicklable_step_fn_rejected_clearly(self):
        eng = build_engine("process", world=1)
        data = mae_micros(1)
        captured = []
        with pytest.raises(TypeError, match="picklable step_fn"):
            eng.train_step(data, lambda model, micro: captured.append(micro))
        eng.close()


class TestFaultsAndRetry:
    def test_transient_collective_fault_retries_bit_identically(self):
        # The staged gradient rows are immutable during reduction, so a
        # retried all-reduce reads the same bytes: the faulted run must
        # land exactly on the clean run's trajectory.
        def flaky_engine(backend):
            plan = FaultPlan([FaultSpec("all_reduce", "transient", call_index=1)])
            return build_engine(
                backend,
                world=2,
                comm=SimComm(fault_plan=plan),
                retry_policy=RetryPolicy(max_retries=2),
            )

        clean = build_engine("inline", world=2)
        losses_ref, state_ref = run_steps(clean, 2, 1)
        clean.close()
        eng = flaky_engine("process")
        losses, state = run_steps(eng, 2, 1)
        retries = eng.comm.stats.total_retries
        eng.close()
        assert retries > 0  # the fault actually fired
        assert losses == losses_ref
        assert_states_equal(state, state_ref)


class TestCheckpointing:
    def test_checkpoint_roundtrip_across_backends(self):
        # Save under the process backend, restore into an inline engine
        # (and vice versa): trajectories must continue bit-identically.
        data = mae_micros(2)
        src = build_engine("process", world=2)
        src.train_step(data, mae_step)
        snapshot = src.state_dict()
        src.close()

        continued = []
        for backend in ("inline", "process"):
            eng = build_engine(backend, world=2, seed=99)  # different init
            eng.load_state_dict(snapshot)
            continued.append(run_steps(eng, 2, 1))
            eng.close()
        (losses_i, state_i), (losses_p, state_p) = continued
        assert losses_i == losses_p
        assert_states_equal(state_i, state_p)


class TestTelemetryFanIn:
    def test_worker_events_reach_parent_bus_tagged_by_rank(self):
        bus = TelemetryBus(RecordingSink())
        eng = build_engine("process", world=2, telemetry=bus)
        data = mae_micros(2)
        eng.train_step(data, mae_step)
        eng.close()
        events = bus.sink.events
        spans = [e for e in events if e.name == "worker.fwd_bwd"]
        gauges = [e for e in events if e.name == "worker.cpu_s"]
        assert {e.attrs.get("rank") for e in spans} == {0, 1}
        assert {e.attrs.get("rank") for e in gauges} == {0, 1}
        assert all(e.value > 0 for e in spans + gauges)
        # Fan-in re-stamps the step, so worker events land on the step
        # that incurred them, like every other engine event.
        assert {e.step for e in spans} == {0}
        # The parent-side spans are still emitted around the round.
        assert any(e.name == "compute.fwd_bwd" for e in events)
