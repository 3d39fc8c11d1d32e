"""SIGTERM/requeue lifecycle: signal → drain → checkpoint → resized world.

Exercises the real signal path (``os.kill`` on ourselves under
:class:`PreemptionHandler`, mirroring the Slurm SIGUSR1/SIGTERM requeue
exemplar), the token semantics, and the telemetry the lifecycle emits.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.engine import EngineConfig, make_engine
from repro.core.trainer import MAEPretrainer
from repro.elastic.errors import PreemptedError
from repro.elastic.layout import ReductionLayout
from repro.elastic.preemption import PreemptionHandler, PreemptionToken
from repro.models.mae import MaskedAutoencoder
from repro.optim.schedules import CosineWithWarmup
from repro.telemetry.bus import RecordingSink, TelemetryBus

LAYOUT = ReductionLayout(total=4, chunk=4)
TOTAL_STEPS = 4
GLOBAL_BATCH = 8


class TestPreemptionToken:
    def test_trip_sets_reason_once(self):
        tok = PreemptionToken()
        assert not tok.tripped
        tok.trip(reason="signal SIGTERM")
        tok.trip(reason="second")
        assert tok.tripped
        assert tok.reason == "signal SIGTERM"
        assert tok.should_preempt(0)

    def test_armed_step_fires_at_boundary(self):
        tok = PreemptionToken()
        tok.arm_at_step(2)
        assert not tok.should_preempt(1)
        assert tok.should_preempt(2)
        assert tok.should_preempt(3)
        assert "armed at step 2" in tok.reason

    def test_negative_arm_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PreemptionToken().arm_at_step(-1)

    def test_reset_clears_everything(self):
        tok = PreemptionToken()
        tok.arm_at_step(0)
        tok.trip()
        tok.reset()
        assert not tok.tripped
        assert tok.reason is None
        assert not tok.should_preempt(10)


class TestPreemptionHandler:
    @pytest.mark.parametrize("sig", [signal.SIGUSR1, signal.SIGTERM])
    def test_signal_trips_token(self, sig):
        tok = PreemptionToken()
        with PreemptionHandler(tok):
            os.kill(os.getpid(), sig)
        assert tok.tripped
        assert tok.reason == f"signal {signal.Signals(sig).name}"

    def test_previous_handlers_are_restored(self):
        before = signal.getsignal(signal.SIGUSR1)
        with PreemptionHandler(PreemptionToken()):
            assert signal.getsignal(signal.SIGUSR1) is not before
        assert signal.getsignal(signal.SIGUSR1) is before

    def test_child_pid_guard(self, monkeypatch):
        # A handler that somehow fires in a spawned worker must not trip
        # the token (the exponential-requeue footgun from the exemplar).
        tok = PreemptionToken()
        handler = PreemptionHandler(tok)
        with handler:
            monkeypatch.setattr(
                "repro.elastic.preemption.os.getpid",
                lambda: handler._main_pid + 1,
            )
            handler._handle(int(signal.SIGTERM), None)
        assert not tok.tripped


def _trainer(tiny_mae_cfg, images, strategy, world_size, *, schedule,
             grad_accum_steps=1, init_seed=7, **kw):
    model = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(init_seed))
    engine = make_engine(
        model,
        strategy,
        world=World(size=world_size, ranks_per_node=world_size),
        config=EngineConfig(
            grad_accum_steps=grad_accum_steps, reduction_layout=LAYOUT
        ),
    )
    return MAEPretrainer(
        engine, images, global_batch=GLOBAL_BATCH, schedule=schedule, seed=9, **kw
    )


class TestSignalDrivenRequeue:
    def test_sigusr1_drains_checkpoints_and_resumes_resized(
        self, tiny_mae_cfg, tmp_path
    ):
        """The full lifecycle, end to end, with a real signal.

        FULL_SHARD W=4 catches SIGUSR1 mid-run, drains the in-flight
        step, writes a final snapshot, and a resized DDP W=2 k=2 world
        requeues from it — landing bit-exact on the uninterrupted run.
        """
        images = np.random.default_rng(11).standard_normal((16, 3, 16, 16))
        schedule = CosineWithWarmup(
            base_lr=1e-3, total_steps=TOTAL_STEPS, warmup_steps=1
        )

        oracle = _trainer(
            tiny_mae_cfg, images, "full_shard", 4, schedule=schedule
        )
        golden = oracle.run(TOTAL_STEPS)

        sink = RecordingSink()
        bus = TelemetryBus(sink)
        tok = PreemptionToken()
        first = _trainer(
            tiny_mae_cfg, images, "full_shard", 4, schedule=schedule,
            checkpoint_dir=str(tmp_path), save_every=1, preemption=tok,
            telemetry=bus,
        )
        # Deliver the signal after step 2 completes, from inside the
        # loop — the handler only flips the flag; the drain happens at
        # the step boundary.
        orig_record = first._record_step

        def record_and_signal(step, *a, **kw):
            if step == 2:
                os.kill(os.getpid(), signal.SIGUSR1)
            return orig_record(step, *a, **kw)

        first._record_step = record_and_signal
        with PreemptionHandler(tok):
            with pytest.raises(PreemptedError) as exc:
                first.resume(TOTAL_STEPS)
        assert exc.value.step == 2
        assert exc.value.checkpoint is not None
        assert tok.reason == "signal SIGUSR1"
        preempts = [e for e in sink.events if e.name == "elastic.preemptions"]
        assert len(preempts) == 1
        assert preempts[0].attrs["reason"] == "signal SIGUSR1"

        requeued = _trainer(
            tiny_mae_cfg, images, "ddp", 2, schedule=schedule,
            grad_accum_steps=2, init_seed=99,
            checkpoint_dir=str(tmp_path), save_every=1, telemetry=bus,
        )
        resumed = requeued.resume(TOTAL_STEPS)

        # The resumed result carries the restored history plus the tail.
        assert resumed.losses == golden.losses
        assert first._hist_losses == golden.losses[: len(first._hist_losses)]
        for (n, p), (_, q) in zip(
            requeued.engine.model.named_parameters(),
            oracle.engine.model.named_parameters(),
        ):
            np.testing.assert_array_equal(p.data, q.data, err_msg=n)

    def test_drain_without_checkpoint_dir_still_unwinds(
        self, tiny_mae_cfg
    ):
        images = np.random.default_rng(11).standard_normal((16, 3, 16, 16))
        schedule = CosineWithWarmup(
            base_lr=1e-3, total_steps=TOTAL_STEPS, warmup_steps=1
        )
        tok = PreemptionToken()
        tok.arm_at_step(1)
        trainer = _trainer(
            tiny_mae_cfg, images, "ddp", 2, schedule=schedule,
            grad_accum_steps=2, preemption=tok,
        )
        with pytest.raises(PreemptedError) as exc:
            trainer.run(TOTAL_STEPS)
        assert exc.value.step == 1
        assert exc.value.checkpoint is None
