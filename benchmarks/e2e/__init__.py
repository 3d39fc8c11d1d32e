"""End-to-end benchmark: four long-run workloads, drift-calibrated
throughput and an outside-in layer trace. See ``README.md`` beside this
file; ``BENCHMARK.json`` at the repository root is the contract."""

import os

#: BLAS/OpenMP pools are pinned to one thread so the only parallelism in
#: a run is what the program under test asks for (worker processes).
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Pin the BLAS pools; call before NumPy is imported. Children inherit it."""
    for name in THREAD_PINS:
        os.environ[name] = "1"
