"""Benchmark: multiprocess backend + threaded GEMM speedup and identity.

Measures what ``EngineConfig(backend="process")`` and
``EngineConfig(intra_op_threads=N)`` buy on a multi-core host, and writes
``BENCH_multicore.json`` for ``benchmarks/check_regression.py``. Three
phases:

- **worker scaling / speedup gate** — one DDP step of the proxy-1b MAE
  at world sizes {1, 2, 4}, inline vs process backend. The gated metric
  is the *critical-path* step time, built from scheduler-independent CPU
  clocks: the inline backend pays every rank's forward+backward serially
  (one ``time.process_time`` reading), while the process backend pays
  only the slowest rank (``ProcessBackend.pop_worker_cpu_s``) plus the
  parent's reduction/optimizer CPU. On a host with >= world-size cores
  the critical path IS the wall time; on the CI container (often 1-2
  cores) wall-clock cannot show the overlap, so both are recorded and
  the gate reads the critical path (DESIGN §12 spells out the model).
- **bit-identity gate** — 3 full fp32 optimizer steps, inline vs
  process, same seeds: losses and every ``state_dict`` entry must be
  bit-equal. This is the acceptance check that the staged-gradient
  reduction preserves the inline contribution order exactly.
- **thread scaling** — the same step with ``intra_op_threads`` {2, 4};
  reports the GEMM tile critical path (``GemmPool`` ``serial_s`` /
  ``effective_s``, per-tile ``time.thread_time``) — the intra-op analog
  of the worker curve.

Run directly (``python benchmarks/bench_multicore.py``) or through
pytest. Keep the ``__main__`` guard if you copy this file: spawn workers
re-import the main module.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import time
from pathlib import Path

# One BLAS thread per process, unless the caller chose otherwise: the
# inline twin and each worker then do equal work on one core each. Must
# precede the NumPy import, which sizes the pool when it loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

from repro.core.config import get_mae_config
from repro.core.engine import EngineConfig, make_engine
from repro.core.trainer import _mae_step_fn
from repro.comm.world import World
from repro.models import MaskedAutoencoder
from repro.models.workspace import Workspace

OUT_PATH = Path(__file__).resolve().parent / "BENCH_multicore.json"

BENCH_MODEL = "proxy-1b"
MICRO_BATCH = 16
WORKER_COUNTS = (1, 2, 4)
THREAD_COUNTS = (2, 4)
MEASURE_STEPS = 3
IDENTITY_STEPS = 3
GATE_WORKERS = 4
GATE_THRESHOLD = 2.5


def _build_engine(world: int, backend: str, threads: int = 1):
    model = MaskedAutoencoder(
        get_mae_config(BENCH_MODEL), rng=np.random.default_rng(0)
    )
    model.use_workspace(Workspace())
    cfg = EngineConfig(backend=backend, intra_op_threads=threads)
    return make_engine(model, "ddp", world=World(world), config=cfg)


def _micros(world: int, seed: int = 1) -> list:
    enc = get_mae_config(BENCH_MODEL).encoder
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(world):
        imgs = rng.standard_normal(
            (MICRO_BATCH, enc.in_chans, enc.img_size, enc.img_size)
        )
        noise = rng.random((MICRO_BATCH, enc.n_patches))
        out.append((imgs, noise))
    return out


# -- phase 1: worker scaling ---------------------------------------------------


def _measure_inline(world: int) -> dict:
    eng = _build_engine(world, "inline")
    data = _micros(world)
    try:
        eng.train_step(data, _mae_step_fn)  # warmup
        cpu, wall = [], []
        for _ in range(MEASURE_STEPS):
            c0, w0 = time.process_time(), time.perf_counter()
            eng.train_step(data, _mae_step_fn)
            cpu.append(time.process_time() - c0)
            wall.append(time.perf_counter() - w0)
    finally:
        eng.close()
    return {
        "step_cpu_s": float(np.median(cpu)),
        "step_wall_s": float(np.median(wall)),
    }


def _measure_process(world: int) -> dict:
    eng = _build_engine(world, "process")
    data = _micros(world)
    try:
        eng.train_step(data, _mae_step_fn)  # warmup
        eng._backend.pop_worker_cpu_s()
        parent_cpu, worker_max, worker_sum, wall = [], [], [], []
        for _ in range(MEASURE_STEPS):
            c0, w0 = time.process_time(), time.perf_counter()
            eng.train_step(data, _mae_step_fn)
            parent_cpu.append(time.process_time() - c0)
            wall.append(time.perf_counter() - w0)
            per_rank = eng._backend.pop_worker_cpu_s()
            worker_max.append(max(per_rank))
            worker_sum.append(sum(per_rank))
    finally:
        eng.close()
    i = int(np.argsort(wall)[len(wall) // 2])  # median-wall step
    return {
        "parent_cpu_s": parent_cpu[i],
        "worker_cpu_max_s": worker_max[i],
        "worker_cpu_sum_s": worker_sum[i],
        "effective_step_s": worker_max[i] + parent_cpu[i],
        "step_wall_s": wall[i],
    }


def _worker_scaling() -> dict:
    out = {}
    for world in WORKER_COUNTS:
        inline = _measure_inline(world)
        proc = _measure_process(world)
        out[str(world)] = {
            "inline": inline,
            "process": proc,
            # Critical-path speedup: what a host with >= `world` cores
            # gains over running every rank serially in one process.
            "speedup_effective": inline["step_cpu_s"] / proc["effective_step_s"],
            "speedup_wall": inline["step_wall_s"] / proc["step_wall_s"],
        }
    return out


# -- phase 2: bit-identity gate ------------------------------------------------


def _trajectory(backend: str) -> tuple[list[float], dict]:
    eng = _build_engine(GATE_WORKERS, backend)
    data = _micros(GATE_WORKERS)
    try:
        losses = [
            eng.train_step(data, _mae_step_fn) for _ in range(IDENTITY_STEPS)
        ]
        state = {k: np.array(v) for k, v in eng.model.state_dict().items()}
    finally:
        eng.close()
    return losses, state


def _bit_identity() -> bool:
    inline_losses, inline_state = _trajectory("inline")
    process_losses, process_state = _trajectory("process")
    return inline_losses == process_losses and all(
        np.array_equal(inline_state[k], process_state[k]) for k in inline_state
    )


# -- phase 3: thread scaling ---------------------------------------------------


def _thread_scaling() -> dict:
    out = {}
    for threads in THREAD_COUNTS:
        eng = _build_engine(1, "inline", threads=threads)
        data = _micros(1)
        try:
            eng.train_step(data, _mae_step_fn)  # warmup
            pool = eng.gemm_pool
            pool.serial_s = pool.effective_s = 0.0
            wall = []
            for _ in range(MEASURE_STEPS):
                w0 = time.perf_counter()
                eng.train_step(data, _mae_step_fn)
                wall.append(time.perf_counter() - w0)
            stats = eng.gemm_pool.stats()
        finally:
            eng.close()
        out[str(threads)] = {
            "step_wall_s": float(np.median(wall)),
            "gemm_serial_s": stats["serial_s"],
            "gemm_effective_s": stats["effective_s"],
            # Tile critical-path scaling over the blocked dispatches.
            "gemm_scaling": stats["serial_s"] / max(stats["effective_s"], 1e-12),
            "dispatches": stats["dispatches"],
            "fused_calls": stats["fused_calls"],
        }
    return out


# -- driver --------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def host_record() -> dict:
    """Where an artifact was measured (ROADMAP: recorded in every one)."""
    return {
        "cpu_count": multiprocessing.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_multicore() -> dict:
    """Run all phases; returns the JSON-ready result dict."""
    workers = _worker_scaling()
    identical = _bit_identity()
    threads = _thread_scaling()
    gate_row = workers[str(GATE_WORKERS)]
    return {
        "schema": 1,
        "host": host_record(),
        "config": {
            "model": BENCH_MODEL,
            "micro_batch": MICRO_BATCH,
            "measure_steps": MEASURE_STEPS,
        },
        "workers": workers,
        "threads": threads,
        "gate": {
            "workers": GATE_WORKERS,
            "threshold": GATE_THRESHOLD,
            "speedup": gate_row["speedup_effective"],
            "bit_identical": identical,
        },
    }


def render_multicore(result: dict) -> str:
    """Human-readable report of one run."""
    lines = [
        f"host cores: {result['host']['cpu_count']}  model: "
        f"{result['config']['model']}  micro batch: "
        f"{result['config']['micro_batch']}",
        "",
        f"{'workers':<8} {'inline cpu':>11} {'proc crit.':>11} "
        f"{'speedup':>8} {'wall x':>7}",
    ]
    for world in WORKER_COUNTS:
        row = result["workers"][str(world)]
        lines.append(
            f"{world:<8} {row['inline']['step_cpu_s']:>10.3f}s "
            f"{row['process']['effective_step_s']:>10.3f}s "
            f"{row['speedup_effective']:>7.2f}x "
            f"{row['speedup_wall']:>6.2f}x"
        )
    lines.append("")
    for threads in THREAD_COUNTS:
        row = result["threads"][str(threads)]
        lines.append(
            f"threads={threads}: gemm critical-path scaling "
            f"{row['gemm_scaling']:.2f}x over {row['dispatches']} dispatches"
        )
    g = result["gate"]
    lines.append("")
    lines.append(
        f"gate: {g['speedup']:.2f}x at {g['workers']} workers "
        f"(>= {g['threshold']}x), fp32 bit-identical: {g['bit_identical']}"
    )
    return "\n".join(lines)


def _write(result: dict) -> None:
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")


def _assert_gates(result: dict) -> None:
    g = result["gate"]
    assert g["bit_identical"], "process backend diverged from inline (fp32)"
    assert g["speedup"] >= g["threshold"], (
        f"critical-path speedup {g['speedup']:.2f}x at {g['workers']} workers "
        f"below the {g['threshold']}x gate"
    )


def test_multicore(benchmark):
    result = benchmark.pedantic(run_multicore, rounds=1, iterations=1)
    from benchmarks.conftest import emit

    emit("Multicore", render_multicore(result))
    _write(result)
    _assert_gates(result)


if __name__ == "__main__":
    res = run_multicore()
    print(render_multicore(res))
    _write(res)
    _assert_gates(res)
    print(f"\nwrote {OUT_PATH}")
