"""The steady-state training step allocates nothing activation-sized.

After warm-up, a step of every engine shape below must

1. miss no :class:`~repro.models.workspace.Workspace` buffer;
2. take at most a few minor page faults, in the training process
   (``resource.getrusage``) and, on the process backend, in every worker
   (``/proc/<pid>/stat``). proxy-base at micro-batch 32 has temporaries
   above glibc's 128 KiB ``mmap`` threshold, so one that escaped the
   pool would fault every step;
3. allocate no activation-sized temporary inside the model: for every
   pipeline op's forward and backward, the ``tracemalloc`` peak over the
   call (less what was traced at its start) grows by less than the
   smallest ``(B, tokens, width)`` activation when the micro-batch
   doubles. A temporary of that size doubles with it; what does not —
   Python objects, NumPy's per-call scratch — cancels, and the O(B·N)
   masking indices and LayerNorm row statistics stay well under it;
4. keep the whole step's transient peak (trainer, engine, reduce,
   optimizer, the mesh's pp sends) below one activation of the global
   batch. A fresh copy of the batch's images is 5.6x that, and a
   two-stage reduce's partials, allocated per step, several gradient
   sets.

Run as a script (``PYTHONPATH=src python
tests/test_models/test_steady_state.py``) it prints the readings for
these cases and for the ``train_dense`` / ``train_fsdp_proc`` benchmark
configurations.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.config import get_mae_config
from repro.core.engine import EngineConfig, make_engine
from repro.core.trainer import MAEPretrainer
from repro.mesh.spec import MeshSpec
from repro.models import MaskedAutoencoder

WARMUP = 2
STEPS = 3
#: "A few pages": what a step may fault, per step, in any one process.
MAX_FAULTS_PER_STEP = 4
#: Elements per NumPy ufunc staging buffer while tracing. A broadcast or
#: strided ufunc call stages operands through buffers of up to
#: ``np.getbufsize()`` elements (64 KiB of float64 by default) whatever
#: the array size: fixed per-call scratch, not activations.
UFUNC_BUFSIZE = 16

#: name -> (variant, strategy, world size, global batch, EngineConfig kwargs)
CASES = {
    "ddp_w1_micro32": ("proxy-base", "ddp", 1, 32, {}),
    "ddp_w1_k4_micro4": ("proxy-base", "ddp", 1, 16, {"grad_accum_steps": 4}),
    "full_shard_process_w2": ("proxy-base", "full_shard", 2, 32, {"backend": "process"}),
    "mesh_pp2_dp2_tp2_1f1b_k2": (
        "proxy-base", "full_shard", 8, 32,
        {"mesh": MeshSpec(pp=2, dp=2, tp=2, schedule="1f1b"), "grad_accum_steps": 2},
    ),
    "hybrid_2gpus_w4_k2": ("proxy-base", "HYBRID_2GPUs", 4, 32, {"grad_accum_steps": 2}),
}

#: The benchmark's two single-engine training workloads, for the script.
BENCH_CASES = {
    "train_dense": ("proxy-3b", "ddp", 1, 32, {}),
    "train_fsdp_proc": ("proxy-1b", "full_shard", 2, 32, {"backend": "process"}),
}


def _minflt(pid: int | None = None) -> int:
    """Minor faults so far: this process's, or (from ``/proc``) ``pid``'s."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with open(f"/proc/{pid}/stat", encoding="ascii") as f:
        # Field 10; the command name (field 2) may hold spaces.
        return int(f.read().rsplit(")", 1)[1].split()[7])


def _workers() -> set:
    return {p for p in multiprocessing.active_children() if p.name.startswith("repro-rank")}


@contextmanager
def _tracing():
    bufsize = np.setbufsize(UFUNC_BUFSIZE)
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)


class _Peaks:
    """Traced high-water marks, less what was traced at the start: of
    each wrapped op call (``ops``, the largest per key) and of whole
    steps, across the resets the op calls make."""

    def __init__(self):
        self.ops: dict = {}
        self._high = 0

    def wrap(self, op, name: str, key) -> None:
        fn = getattr(op, name)

        def traced(*args):
            self._high = max(self._high, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            self.ops[key] = max(self.ops.get(key, 0), tracemalloc.get_traced_memory()[1] - start)
            return out

        setattr(op, name, traced)

    def step(self, fn) -> int:
        tracemalloc.reset_peak()
        self._high = 0
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return max(self._high, tracemalloc.get_traced_memory()[1]) - start


def activation_bytes(variant: str, batch: int) -> tuple[int, int]:
    """The smallest and the largest float64 ``(batch, tokens, width)``
    activation."""
    cfg = get_mae_config(variant)
    enc = cfg.encoder
    sizes = ((1 + cfg.n_visible) * enc.width, (1 + enc.n_patches) * cfg.dec_width)
    return 8 * batch * min(sizes), 8 * batch * max(sizes)


def measure(variant, strategy, world, global_batch, engine_kwargs) -> dict:
    """Readings over two passes of ``STEPS`` steps after ``WARMUP``:
    faults untraced, then the peaks of whole steps and of each op."""
    before = _workers()
    model = MaskedAutoencoder(get_mae_config(variant), rng=np.random.default_rng(7))
    engine = make_engine(
        model, strategy, world=World(world), config=EngineConfig(**engine_kwargs)
    )
    workers = sorted(_workers() - before, key=lambda p: p.name)
    if not os.path.exists(f"/proc/{os.getpid()}/stat"):
        workers = None
    try:
        imgs = np.random.default_rng(42).standard_normal((2 * global_batch, 3, 32, 32))
        trainer = MAEPretrainer(
            engine, imgs, global_batch, schedule=lambda step: 1e-3, seed=5
        )
        trainer.run(WARMUP)
        steps = iter(range(WARMUP, WARMUP + 2 * STEPS))

        def step():
            trainer.run(1, start_step=next(steps))

        misses = model.workspace.misses
        peaks = _Peaks()
        gc.collect()
        gc.disable()
        try:
            faults = _minflt()
            worker_faults = [_minflt(p.pid) for p in workers or ()]
            for _ in range(STEPS):
                step()
            faults = (_minflt() - faults) / STEPS
            worker_faults = [
                (_minflt(p.pid) - f) / STEPS for p, f in zip(workers or (), worker_faults)
            ]
            for i, op in enumerate(model.pipeline_ops()):
                for name in ("forward", "backward"):
                    peaks.wrap(op, name, (i, name))
            with _tracing():
                step_peak = max(peaks.step(step) for _ in range(STEPS))
        finally:
            gc.enable()
        micro = global_batch // (engine.data_parallel_size * engine.grad_accum_steps)
        return {
            "misses": model.workspace.misses - misses,
            "faults_per_step": faults,
            "worker_faults_per_step": None if workers is None else worker_faults,
            "step_peak_bytes": step_peak,
            "op_peak_bytes": peaks.ops,
            "smallest_activation_bytes": activation_bytes(variant, micro)[0],
            "global_activation_bytes": activation_bytes(variant, global_batch)[1],
        }
    finally:
        engine.close()


@pytest.mark.parametrize("name", list(CASES))
def test_steady_state_step_is_allocation_free(name):
    variant, strategy, world, batch, kwargs = CASES[name]
    r = measure(variant, strategy, world, batch, kwargs)
    assert r["misses"] == 0
    assert r["faults_per_step"] <= MAX_FAULTS_PER_STEP, r
    if r["worker_faults_per_step"] is not None:
        assert max(r["worker_faults_per_step"], default=0) <= MAX_FAULTS_PER_STEP, r
    assert r["step_peak_bytes"] < r["global_activation_bytes"], r
    if r["op_peak_bytes"]:  # the process backend runs the ops in its workers
        doubled = measure(variant, strategy, world, 2 * batch, kwargs)["op_peak_bytes"]
        growth = {k: doubled[k] - peak for k, peak in r["op_peak_bytes"].items()}
        assert max(growth.values()) < r["smallest_activation_bytes"], growth


if __name__ == "__main__":
    for name, case in {**CASES, **BENCH_CASES}.items():
        r = measure(*case)
        r["op_peak_bytes"] = max(r["op_peak_bytes"].values(), default=0)
        print(name, r, flush=True)
