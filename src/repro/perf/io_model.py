"""Dataloader throughput model (paper Fig. 1 'IO' curve).

The paper measures IO by running the PyTorch dataloader in isolation:
4 worker processes per rank read and decode MillionAID images from
Lustre. Per-rank throughput is ``workers x decode_rate``, so IO scales
linearly with the ranks. Frontier's Orion filesystem has multi-TB/s
aggregate bandwidth: a cap at a 10 TB/s aggregate over 0.35 MB images
would bind only above ~238 000 ranks, more GCDs than Frontier has, so
the model carries no filesystem cap. The paper finds the application
never IO-bound; this model reproduces that by construction (Fig. 1's
claim says so).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["IoModel"]


@dataclass(frozen=True)
class IoModel:
    """Per-rank image pipeline throughput.

    Attributes
    ----------
    workers_per_rank:
        Dataloader worker processes per GPU rank (paper: 4).
    decode_rate_imgs_per_s:
        Images decoded+transformed per second per worker, calibrated for
        512x512 JPEG decode on one EPYC core (~30 img/s).
    """

    workers_per_rank: int = 4
    decode_rate_imgs_per_s: float = 30.0

    def __post_init__(self) -> None:
        if self.workers_per_rank <= 0:
            raise ValueError("workers_per_rank must be positive")
        if self.decode_rate_imgs_per_s <= 0:
            raise ValueError("decode_rate_imgs_per_s must be positive")

    def rank_ips(self, n_ranks: int) -> float:
        """Per-rank sustainable images/second; the same at any ``n_ranks``
        (no filesystem cap binds at Frontier's scale)."""
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        return self.workers_per_rank * self.decode_rate_imgs_per_s

    def total_ips(self, n_ranks: int) -> float:
        """Aggregate dataloader images/second across the job."""
        return self.rank_ips(n_ranks) * n_ranks

    def step_time(self, local_batch: int, n_ranks: int) -> float:
        """Seconds for every rank to produce one local batch."""
        if local_batch <= 0:
            raise ValueError(f"local_batch must be positive, got {local_batch}")
        return local_batch / self.rank_ips(n_ranks)
