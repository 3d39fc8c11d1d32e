"""Benchmark: multiprocess backend wall-clock speedup and identity.

Measures what ``EngineConfig(backend="process")`` buys on a multi-core
host. Two phases, each a gate taken inside one run:

- **worker scaling / speedup gate** — one DDP step of the proxy-1b MAE
  at world sizes {1, 2, 4}, inline vs process backend, on the wall
  clock. Both engines are built once per world size and timed as
  interleaved pairs (:func:`_time_pair`): each ratio compares two
  steps taken at the same instant, and ``speedup_wall`` is
  the median of the per-pair ratios, all of which are recorded. The gate
  is ``speedup_wall >= GATE_FLOOR`` at ``GATE_WORKERS`` — the process
  backend must beat inline on the clock — and is skipped, with a printed
  reason, on a host with fewer than 2 CPUs, where workers can only take
  turns.
- **bit-identity gate** — 3 full fp32 optimizer steps, inline vs
  process, same seeds: losses and every ``state_dict`` entry must be
  bit-equal. This is the acceptance check that the staged-gradient
  reduction preserves the inline contribution order exactly.

Threading inside a rank is the BLAS's job (``OPENBLAS_NUM_THREADS``);
this script pins it to 1 unless the caller exported a value.

Run directly (``python benchmarks/bench_multicore.py``: prints the
report and the host, exits 1 when a gate fails) or through pytest. Keep
the ``__main__`` guard if you copy this file: spawn workers re-import
the main module.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import statistics
import sys
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

BENCH_MODEL = "proxy-1b"
MICRO_BATCH = 16
WORKER_COUNTS = (1, 2, 4)
WARMUP_PAIRS = 2
TIMED_PAIRS = 15
IDENTITY_STEPS = 3
GATE_WORKERS = 4
#: The process backend must beat inline on the wall clock, with margin
#: for the host: 4 workers on 2 cores read ~1.5x (README).
GATE_FLOOR = 1.2


def _build_engine(world: int, backend: str):
    model = MaskedAutoencoder(
        get_mae_config(BENCH_MODEL), rng=np.random.default_rng(0)
    )
    model.use_workspace(Workspace())
    cfg = EngineConfig(backend=backend)
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


def _time_pair(fn_a, fn_b) -> tuple[list[float], list[float]]:
    """Seconds per call of ``fn_a`` and ``fn_b``, sampled a, b, a, b, ...

    On a noisy shared host, timing all of A then all of B lets a load
    spike land on one side; interleaved, each ratio ``a[i] / b[i]``
    compares two calls made at the same instant.
    """
    for _ in range(WARMUP_PAIRS):
        fn_a()
        fn_b()
    samples: tuple[list[float], list[float]] = ([], [])
    for _ in range(TIMED_PAIRS):
        for fn, out in zip((fn_a, fn_b), samples):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return samples


def _worker_scaling() -> dict:
    out = {}
    for world in WORKER_COUNTS:
        data = _micros(world)
        inline = _build_engine(world, "inline")
        process = _build_engine(world, "process")
        try:
            a, b = _time_pair(
                lambda: inline.train_step(data, _mae_step_fn),
                lambda: process.train_step(data, _mae_step_fn),
            )
        finally:
            process.close()
            inline.close()
        ratios = [x / y for x, y in zip(a, b)]
        out[str(world)] = {
            "inline_step_s": statistics.median(a),
            "process_step_s": statistics.median(b),
            "speedup_wall": statistics.median(ratios),
            "pair_ratios": ratios,
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
    """Where a bench ran: its reports print this beside every figure."""
    return {
        "cpu_count": multiprocessing.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def render_host(host: dict) -> str:
    """One report line naming the host a figure was measured on."""
    return (
        f"host: {host['cpu_count']} x {host['cpu_model']}, python "
        f"{host['python']}, numpy {host['numpy']}"
    )


def run_multicore() -> dict:
    """Run both phases; returns the result dict."""
    workers = _worker_scaling()
    identical = _bit_identity()
    return {
        "host": host_record(),
        "config": {
            "model": BENCH_MODEL,
            "micro_batch": MICRO_BATCH,
            "warmup_pairs": WARMUP_PAIRS,
            "timed_pairs": TIMED_PAIRS,
        },
        "workers": workers,
        "gate": {
            "workers": GATE_WORKERS,
            "floor": GATE_FLOOR,
            "speedup_wall": workers[str(GATE_WORKERS)]["speedup_wall"],
            "bit_identical": identical,
        },
    }


def render_multicore(result: dict) -> str:
    """Human-readable report of one run."""
    cfg = result["config"]
    lines = [
        render_host(result["host"]),
        f"model: {cfg['model']}  micro batch: {cfg['micro_batch']}  "
        f"interleaved pairs: {cfg['timed_pairs']}",
        "",
        f"{'workers':<8} {'inline':>9} {'process':>9} {'wall x':>7} "
        f"{'quartiles':>12}",
    ]
    for world in WORKER_COUNTS:
        row = result["workers"][str(world)]
        q1, q3 = np.percentile(row["pair_ratios"], [25, 75])
        lines.append(
            f"{world:<8} {row['inline_step_s'] * 1e3:>7.1f}ms "
            f"{row['process_step_s'] * 1e3:>7.1f}ms "
            f"{row['speedup_wall']:>6.2f}x {q1:>6.2f}-{q3:.2f}"
        )
    g = result["gate"]
    lines.append("")
    lines.append(
        f"gate: {g['speedup_wall']:.2f}x wall at {g['workers']} workers "
        f"(>= {g['floor']}x), fp32 bit-identical: {g['bit_identical']}"
    )
    return "\n".join(lines)


def gate_failures(result: dict) -> list[str]:
    """Both gates' verdicts: empty when they hold. The speedup gate is
    skipped, with a printed reason, on a host with fewer than 2 CPUs."""
    g = result["gate"]
    failures = []
    if not g["bit_identical"]:
        failures.append("process backend diverged from inline (fp32)")
    cpus = result["host"]["cpu_count"]
    if cpus < 2:
        print(f"speedup gate skipped: {cpus} CPU, workers can only take turns")
    elif g["speedup_wall"] < g["floor"]:
        failures.append(
            f"wall-clock speedup {g['speedup_wall']:.2f}x at {g['workers']} "
            f"workers below the {g['floor']}x floor"
        )
    return failures


def test_multicore(benchmark):
    result = benchmark.pedantic(run_multicore, rounds=1, iterations=1)
    from benchmarks.conftest import emit

    emit("Multicore", render_multicore(result))
    assert gate_failures(result) == []


if __name__ == "__main__":
    res = run_multicore()
    print(render_multicore(res))
    failures = gate_failures(res)
    for line in failures:
        print(f"GATE FAILED: {line}")
    sys.exit(1 if failures else 0)
