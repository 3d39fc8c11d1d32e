"""DDP-style gradient bucketing.

``torch.nn.parallel.DistributedDataParallel`` coalesces gradients into
fixed-capacity buckets (default 25 MB) and launches one all-reduce per
bucket as soon as all gradients in it are ready during the backward pass.
Buckets are filled in *reverse* parameter registration order, because
gradients become available roughly from the last layer backwards.

The paper attributes DDP's growing disadvantage at larger model sizes to
exactly this constant bucket size: the number of all-reduce calls grows
linearly with parameter bytes, so per-call latency eventually dominates.
This module reproduces the bucket-assignment logic; both the executable
DDP row (:mod:`repro.core.engine_core`) and the performance model consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Bucket", "bucket_gradients", "DEFAULT_BUCKET_CAP_BYTES"]

#: PyTorch DDP's default ``bucket_cap_mb`` = 25 MB.
DEFAULT_BUCKET_CAP_BYTES = 25 * 1024 * 1024


@dataclass
class Bucket:
    """One gradient bucket: indices into the parameter list plus its size."""

    param_indices: list[int] = field(default_factory=list)
    nbytes: int = 0

    def __len__(self) -> int:
        return len(self.param_indices)


def bucket_gradients(
    param_nbytes: list[int],
    cap_bytes: int = DEFAULT_BUCKET_CAP_BYTES,
    first_bucket_cap_bytes: int | None = 1024 * 1024,
) -> list[Bucket]:
    """Assign parameters (given as byte sizes, in registration order) to buckets.

    Parameters are consumed in reverse registration order, as DDP does. A
    parameter larger than the cap gets a bucket of its own. PyTorch uses a
    small first bucket (1 MB) to start communication early; pass
    ``first_bucket_cap_bytes=None`` to disable.

    Returns buckets in the order their all-reduces launch during backward.
    """
    if cap_bytes <= 0:
        raise ValueError(f"cap_bytes must be positive, got {cap_bytes}")
    buckets: list[Bucket] = []
    current = Bucket()
    # The small first bucket never exceeds the main cap (a 1 MB head
    # start makes no sense when the user asked for smaller buckets).
    cap = min(first_bucket_cap_bytes, cap_bytes) if first_bucket_cap_bytes else cap_bytes
    for idx in reversed(range(len(param_nbytes))):
        nbytes = param_nbytes[idx]
        if nbytes < 0:
            raise ValueError(f"negative parameter size at index {idx}")
        if current.param_indices and current.nbytes + nbytes > cap:
            buckets.append(current)
            current = Bucket()
            cap = cap_bytes
        current.param_indices.append(idx)
        current.nbytes += nbytes
        if current.nbytes >= cap:
            buckets.append(current)
            current = Bucket()
            cap = cap_bytes
    if current.param_indices:
        buckets.append(current)
    return buckets
