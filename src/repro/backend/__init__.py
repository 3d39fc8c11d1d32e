"""Execution backends: where rank-SPMD compute actually runs.

The engines in :mod:`repro.core` simulate a multi-rank job; this package
decides what executes a rank's forward/backward:

``inline`` (default)
    Every rank runs sequentially in the calling process — the original
    single-core behavior, now behind the same seam.
``process``
    Each rank is a spawned OS process sharing flat parameters and a
    gradient staging block through ``multiprocessing.shared_memory``
    (:mod:`repro.backend.process`). fp32 steps are bit-identical to
    inline (tested); multi-core hosts get real step-level parallelism.

Threading *inside* a rank is the BLAS's job: export
``OPENBLAS_NUM_THREADS`` (``ProcessBackend.start()`` pins it to 1 in the
workers only when the caller left it unset).

Select via config — engines call :func:`make_backend` internally::

    engine = make_engine(model, "full_shard", world=World(4),
                         config=EngineConfig(backend="process"))
    ...
    engine.close()   # join workers, unlink /dev/shm segments
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "inline": ("BACKEND_CHOICES", "ExecutionBackend", "InlineBackend", "make_backend"),
        "process": ("ProcessBackend", "WorkerCrashError", "WorkerStepError"),
        "shm": ("ShmArena", "sweep_segments"),
    },
)
