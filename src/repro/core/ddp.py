"""Bucketed distributed data parallel (the paper's DDP baseline).

Numerically DDP and FSDP ``NO_SHARD`` are the same algorithm — gradients
are averaged across ranks every step — but the implementations differ in
how the all-reduces are issued: DDP coalesces gradients into fixed 25 MB
buckets filled in reverse parameter order and launches one all-reduce per
bucket. The engine reproduces that call pattern through the collective
layer (byte/call accounting matches PyTorch DDP's), which is what the
performance model keys off when explaining the paper's observation that
DDP falls behind FSDP as the model grows.

This module is that layout only — per-parameter data and optimizer
slots, one flat gradient buffer per bucket that every ``p.grad`` views
(PyTorch DDP's ``gradient_as_bucket_view``: backward writes where the
all-reduce reads, and the mean lands where the optimizer reads) and one
``comm.all_reduce`` per bucket; everything else an engine does is
:class:`~repro.core.engine_core.EngineCore`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.comm.bucketing import bucket_gradients
from repro.comm.collectives import SimComm
from repro.comm.faults import RetryPolicy
from repro.comm.world import World
from repro.core.engine import EngineConfig
from repro.core.engine_core import EngineCore
from repro.core.sharding import install_grad_views
from repro.elastic.layout import validate_layout
from repro.models.module import Module
from repro.optim.base import Optimizer

__all__ = ["DDPEngine"]


class DDPEngine(EngineCore):
    """Data-parallel training with bucketed gradient all-reduce.

    Prefer :func:`repro.core.engine.make_engine` for construction; the
    keyword parameters here are kept for compatibility and are folded
    into an :class:`~repro.core.engine.EngineConfig` (available as
    ``self.config``). When ``config`` is passed explicitly it wins over
    the individual kwargs.
    """

    kind = "ddp"
    strategy_name = "DDP"
    _REMOVED_KWARGS = {"bucket_cap_mb": "bucket_cap_bytes", "retries": "retry_policy"}

    def __init__(
        self,
        model: Module,
        world: World,
        optimizer_factory: Callable[[Sequence], Optimizer] | None = None,
        comm: SimComm | None = None,
        bucket_cap_bytes: int | None = None,
        first_bucket_cap_bytes: int | None = 1024 * 1024,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        *,
        config: EngineConfig | None = None,
        telemetry=None,
        **legacy,
    ):
        self._reject_kwargs(legacy)
        if config is None:
            config = EngineConfig(
                optimizer_factory=optimizer_factory,
                comm=comm,
                bucket_cap_bytes=(
                    bucket_cap_bytes
                    if bucket_cap_bytes is not None
                    else EngineConfig().bucket_cap_bytes
                ),
                first_bucket_cap_bytes=first_bucket_cap_bytes,
                retry_policy=retry_policy,
                telemetry=telemetry,
            )
        super().__init__(model, world, config)
        # DDP's bucketed all-reduce is always single-stage; an explicit
        # chunked layout (only HYBRID_SHARD can realize one) is rejected
        # here rather than silently changing the trajectory.
        self.layout = validate_layout(
            "DDP", world.size, None, config.grad_accum_steps, config.reduction_layout
        )
        self.params = model.parameters()
        self.buckets = bucket_gradients(
            [p.grad.nbytes for p in self.params],
            cap_bytes=config.bucket_cap_bytes,
            first_bucket_cap_bytes=config.first_bucket_cap_bytes,
        )
        self.grad_groups = [b.param_indices for b in self.buckets]
        self.grad_buffers = [
            install_grad_views([self.params[i] for i in group])
            for group in self.grad_groups
        ]
        self._launch()

    @property
    def n_buckets(self) -> int:
        """Number of gradient buckets (all-reduce calls per step)."""
        return len(self.buckets)

    def _reduce_gradients(
        self, grads: list[list[list[np.ndarray]]]
    ) -> list[np.ndarray]:
        """One all-reduce per bucket over all ``k * W`` contributions
        (``parts_per_rank``), so an fp32 ``k``-round step is
        bit-identical to the same global batch on a ``k``-times-larger
        world. Each mean lands in its bucket's buffer — the ``p.grad``
        views the optimizer reads; the inputs are outbound copies, so a
        retried all-reduce sees them unchanged."""
        k = len(grads)
        group = self.world.world_group()
        for b, out in enumerate(self.grad_buffers):
            bufs = [grads[j][r][b] for j in range(k) for r in range(self.world.size)]
            self._mean_reduce("all_reduce", bufs, group, k, out=out)
        return self.grad_buffers
