"""Process-backend lifecycle: no leaked segments, no orphan workers.

The regression this suite pins down: every ``/dev/shm`` segment and
worker process the backend creates must be reclaimed after a clean
``engine.close()`` **and** after a chaos-injected rank crash — the two
paths the paper's fault-tolerance story cares about (a killed rank must
never strand node-local resources that the next incarnation needs).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.reduction
import os

import numpy as np
import pytest

from repro.backend import WorkerCrashError
from repro.backend.process import BLAS_THREAD_VARS
from repro.comm.world import World
from repro.core.config import get_mae_config
from repro.core.engine import EngineConfig, make_engine
from repro.models.mae import MaskedAutoencoder

from tests.test_backend.helpers import (
    blas_threads_step,
    build_engine,
    crash_step,
    mae_micros,
    mae_step,
    repro_shm_segments,
)

#: Linux's default pipe buffer: a spawn launch larger than this holds
#: ``proc.start()`` until the child has re-imported ``__main__``.
PIPE_BUFFER = 64 * 1024


def _refuse_replica():
    raise RuntimeError("this replica refuses to load")


class UnloadableMAE(MaskedAutoencoder):
    """A model the parent pickles fine and no worker can unpickle."""

    def __reduce__(self):
        return (_refuse_replica, ())


@pytest.fixture(autouse=True)
def _no_preexisting_leaks():
    before = repro_shm_segments()
    yield
    # Anything beyond what existed before this test is a leak.
    leaked = sorted(set(repro_shm_segments()) - set(before))
    assert leaked == [], f"leaked /dev/shm segments: {leaked}"
    children = [p.name for p in multiprocessing.active_children()]
    assert children == [], f"orphan worker processes: {children}"


def test_clean_shutdown_reclaims_everything():
    eng = build_engine("process", world=2)
    data = mae_micros(2)
    eng.train_step(data, mae_step)
    assert repro_shm_segments() != []  # segments live while training
    eng.close()
    # The fixture asserts /dev/shm and the child list are clean.


@pytest.mark.parametrize("preset,seen", [(None, 1.0), ("2", 2.0)])
def test_workers_start_with_one_blas_thread_unless_the_caller_chose(
    monkeypatch, preset, seen
):
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    eng = build_engine("process", world=1)
    try:
        assert os.environ.get("OPENBLAS_NUM_THREADS") == preset  # parent untouched
        assert "OMP_NUM_THREADS" not in os.environ
        assert eng.train_step(mae_micros(1), blas_threads_step) == seen
    finally:
        eng.close()


def test_close_is_idempotent_and_engine_stays_usable():
    eng = build_engine("process", world=2)
    data = mae_micros(2)
    loss_before = eng.train_step(data, mae_step)
    eng.close()
    eng.close()
    # After close the engine still trains (storage was re-homed to
    # private arrays), it just lost its workers.
    with pytest.raises(RuntimeError):
        eng.train_step(data, mae_step)


def test_chaos_worker_crash_reclaims_everything():
    eng = build_engine("process", world=2)
    data = mae_micros(2)
    eng.train_step(data, mae_step)  # healthy step first
    with pytest.raises(WorkerCrashError) as exc:
        eng.train_step(data, crash_step)
    assert exc.value.rank >= 0
    # The backend is poisoned: further steps refuse deterministically
    # instead of deadlocking on a dead pipe.
    with pytest.raises(WorkerCrashError, match="poisoned"):
        eng.train_step(data, mae_step)
    eng.close()


def test_crash_before_any_step_still_reclaims():
    eng = build_engine("process", world=2)
    data = mae_micros(2)
    with pytest.raises(WorkerCrashError):
        eng.train_step(data, crash_step)
    eng.close()


def test_worker_dying_during_startup_is_a_typed_failure():
    model = UnloadableMAE(get_mae_config("proxy-base"), rng=np.random.default_rng(7))
    with pytest.raises(WorkerCrashError):
        make_engine(model, "ddp", world=World(2), config=EngineConfig(backend="process"))
    # The fixture asserts no worker and no /dev/shm segment outlived it.


def test_spawn_launch_fits_the_pipe_buffer(monkeypatch):
    """The replica is not in the spawn launch, so starting rank r never
    waits for rank r - 1's imports: every launch (preparation data plus
    the pickled process and its args) fits a default pipe buffer."""
    launches = []
    dump = multiprocessing.reduction.dump

    def measured_dump(obj, file, protocol=None):
        dump(obj, file, protocol)
        if isinstance(obj, multiprocessing.process.BaseProcess):
            launches.append(file.tell())

    monkeypatch.setattr(multiprocessing.reduction, "dump", measured_dump)
    model = MaskedAutoencoder(get_mae_config("proxy-1b"), rng=np.random.default_rng(7))
    eng = make_engine(
        model, "full_shard", world=World(2), config=EngineConfig(backend="process")
    )
    eng.close()
    assert len(launches) == 2
    assert max(launches) < PIPE_BUFFER, launches
