"""The fixed calibration kernel, and the record of the host a run was taken on.

Throughput on a shared host drifts by tens of percent over tens of
seconds (neighbour contention; steal time stays near zero, CPU time is
no steadier than wall time). One calibration sample is taken before the
first timed block and after every block, so each block has a reading of
how fast the host was around it; ``images_per_cal`` multiplies a block's
throughput by that reading and the drift cancels (see README).
"""

from __future__ import annotations

import heapq
import os
import platform
import statistics
from time import perf_counter

import numpy as np

from benchmarks.e2e import THREAD_PINS

#: Fixed work of one sample, one "calibration unit" (~100 ms on the
#: 2-core authoring host, about a third in each part). Never tuned at
#: run time: the unit must be the same piece of work in every run.
GEMM_REPS = 8
SMALL_OPS_REPS = 20
PYTHON_ITEMS = 40_000

#: The runner warns (it does not fail) past this p90 / p10 of the samples.
SPREAD_WARN = 1.25


class Calibrator:
    """Three fixed pieces of work, one for each way the workloads spend time.

    A slow spell of the host does not slow all code alike: measured on
    the authoring host, the BLAS-bound kernel alone tracked the training
    workloads but not the pure-Python serving loop (spread of
    ``images_per_cal`` over ten runs 15 % there), and a pure-Python
    kernel alone did the reverse. The unit is therefore the sum of

    - ``gemm``: float64 ``(272x256) @ (256x1024)`` then ``tanh``, in place;
    - ``small_ops``: one transformer-block-shaped chain of small NumPy
      calls (MLP, layer norm, 8-head attention over 32 x 5 tokens of
      width 96), allocating as it goes;
    - ``python``: dict and heap churn in the interpreter.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)  # the kernel is the same for every --seed
        self._a = rng.standard_normal((272, 256))
        self._b = rng.standard_normal((256, 1024))
        self._out = np.empty((272, 1024))
        self._x = rng.standard_normal((160, 96))
        self._w1 = rng.standard_normal((96, 384)) * 0.1
        self._w2 = rng.standard_normal((384, 96)) * 0.1
        self._wqkv = rng.standard_normal((96, 288)) * 0.1
        self.samples: list[float] = []
        self.parts: list[tuple[float, float, float]] = []

    def _gemm(self) -> None:
        a, b, out = self._a, self._b, self._out
        for _ in range(GEMM_REPS):
            np.matmul(a, b, out=out)
            np.tanh(out, out=out)

    def _small_ops(self) -> None:
        x, w1, w2, wqkv = self._x, self._w1, self._w2, self._wqkv
        for _ in range(SMALL_OPS_REPS):
            h = x @ w1
            np.tanh(h, out=h)
            y = h @ w2
            y += x
            mu = y.mean(axis=-1, keepdims=True)
            var = y.var(axis=-1, keepdims=True)
            y = (y - mu) / np.sqrt(var + 1e-6)
            q, k, v = (y @ wqkv).reshape(32, 5, 3, 8, 12).transpose(2, 0, 3, 1, 4)
            att = q @ k.transpose(0, 1, 3, 2)
            att -= att.max(axis=-1, keepdims=True)
            np.exp(att, out=att)
            att /= att.sum(axis=-1, keepdims=True)
            (att @ v).transpose(0, 2, 1, 3).reshape(160, 96)

    @staticmethod
    def _python() -> None:
        heap: list[tuple[int, int]] = []
        seen: dict[int, int] = {}
        for i in range(PYTHON_ITEMS):
            key = (i * 2654435761) & 1023
            seen[key] = seen.get(key, 0) + 1
            heapq.heappush(heap, (key, i))
            if len(heap) > 64:
                heapq.heappop(heap)

    def sample(self) -> float:
        """Run one calibration unit; returns (and records) its seconds."""
        t0 = perf_counter()
        self._gemm()
        t1 = perf_counter()
        self._small_ops()
        t2 = perf_counter()
        self._python()
        t3 = perf_counter()
        self.parts.append((t1 - t0, t2 - t1, t3 - t2))
        self.samples.append(t3 - t0)
        return t3 - t0

    def spread(self) -> float:
        """p90 / p10 of the samples: how much the host moved during the run."""
        if len(self.samples) < 2:
            return 1.0
        deciles = statistics.quantiles(self.samples, n=10, method="inclusive")
        return deciles[8] / deciles[0]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        return "unknown"


def host_record() -> dict:
    """What every result JSON says about where it was measured."""
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "loadavg": list(os.getloadavg()),
    }


def noise_warnings(calib_spread: float, loadavg_1m: float, nproc: int) -> list[str]:
    """Reasons this run may be unresolved; the runner prints them."""
    out = []
    if calib_spread > SPREAD_WARN:
        out.append(
            f"host.calib_spread {calib_spread:.2f} > {SPREAD_WARN}: the host "
            "moved during the run; compare images_per_cal, not images_per_s"
        )
    if loadavg_1m > nproc:
        out.append(f"loadavg {loadavg_1m:.2f} > nproc {nproc}: the host is oversubscribed")
    return out
