"""The inline execution backend: all ranks run in the calling process.

Every engine shares one compute loop (:meth:`EngineCore._forward_backward
<repro.core.engine_core.EngineCore._forward_backward>`) wherever rank
compute runs. The engine owns everything outside it (casting,
collectives, optimizer, telemetry); a backend owns two things — the
storage of the outbound rows it hands the engine once
(:meth:`ExecutionBackend.outbound_rows`), and running every rank of one
accumulation round through the one rank body,
:meth:`Storage.run_rank <repro.core.sharding.Storage.run_rank>`.

What the seam reads of an engine is what
:class:`~repro.core.engine_core.EngineCore` declares. Both backends:
``model``, ``storage``, ``grad_buffers``, ``grad_accum_steps``,
``data_parallel_size`` (the process backend's worker count) and, per
round, ``_wire_scale()``; this one also ``_outbound``; the process
backend also ``strategy``, ``shard_size`` and ``grad_groups`` (what a
worker hands :func:`~repro.core.sharding.declare_storage` to lay out its
replica the same way) and, per round, ``telemetry``.

The contract both backends honor (``tests/test_backend`` asserts it
bit-for-bit under fp32):

- ``outbound_rows()[j][r][i]`` is (round ``j``, rank ``r``)'s outbound
  copy of ``grad_buffers[i]`` — same size and dtype, never aliasing it,
  the same array for the engine's life;
- ranks run in ascending order within a round, each against the rank's
  already-cast microbatch, with local gradients marked unwritten first
  (a micro's first contribution writes each one);
- when ``run_round(j, ...)`` returns, row ``[j][r]`` holds rank ``r``'s
  contribution (already loss-scaled/quantized for the wire), ready for
  the engine's deterministic reduction — which writes its result into
  the gradient arrays the optimizer reads.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["BACKEND_CHOICES", "ExecutionBackend", "InlineBackend", "make_backend"]

#: Backend names accepted by ``EngineConfig(backend=...)``.
BACKEND_CHOICES = ("inline", "process")


class ExecutionBackend:
    """Where rank forward/backward compute runs (subclass hook).

    Engines construct a backend before the optimizer (a backend may
    re-home parameter storage), take its :meth:`outbound_rows`, then
    call :meth:`start` once the model is fully wired, :meth:`run_round`
    once per accumulation round, and :meth:`shutdown` from
    ``engine.close()``.
    """

    #: Name reported in telemetry/benchmarks.
    name = "base"

    def __init__(self, engine):
        self.engine = engine

    def outbound_rows(self) -> list[list[list[np.ndarray]]]:
        """The ``rows[j][r][i]`` every round writes and the reduce reads."""
        raise NotImplementedError

    def start(self) -> None:
        """Bring up workers (no-op for inline)."""

    def run_round(
        self, round_index: int, micros: Sequence[Any], step_fn: Callable
    ) -> list[float]:
        """Run one accumulation round into its outbound rows; returns
        the ranks' losses."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Tear down workers and release shared resources (idempotent)."""


class InlineBackend(ExecutionBackend):
    """Sequential rank-SPMD execution on the calling thread."""

    name = "inline"

    def outbound_rows(self):
        eng = self.engine
        return [
            [[np.empty_like(g) for g in eng.grad_buffers] for _ in range(eng.data_parallel_size)]
            for _ in range(eng.grad_accum_steps)
        ]

    def run_round(self, round_index, micros, step_fn):
        eng = self.engine
        scale = eng._wire_scale()
        losses: list[float] = []
        for micro, row in zip(micros, eng._outbound[round_index], strict=True):
            losses.append(eng.storage.run_rank(eng.model, micro, step_fn, row, scale))
        return losses


def make_backend(engine) -> ExecutionBackend:
    """Build the execution backend selected by ``engine.config.backend``."""
    backend = engine.config.backend
    if backend == "inline":
        return InlineBackend(engine)
    if backend == "process":
        # Imported here so an inline job never loads the process machinery.
        from repro.backend.process import ProcessBackend

        return ProcessBackend(engine)
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKEND_CHOICES}"
    )
