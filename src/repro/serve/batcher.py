"""Dynamic micro-batching policy: close on size or on age, whichever first.

Dash et al.'s Frontier serving study makes the core trade explicit:
larger batches amortize per-launch overhead and raise device utilization,
but every queued request pays the wait. The classic resolution — the one
production servers (Triton, vLLM, TF-Serving) all converge on — is a
*dynamic micro-batcher* with two knobs:

``max_batch_size``
    A batch closes the moment this many requests are waiting (throughput
    bound).
``max_wait_s``
    A batch closes once its *oldest* member has waited this long, full
    or not (latency bound).

Whichever trips first wins. The policy itself is a pure function of the
queue state and the virtual clock: :meth:`MicroBatcher.ready_at` reports
the earliest virtual time a batch could close, which is exactly the
event the serving loop schedules; :meth:`MicroBatcher.take` pops the
batch. "Oldest" is whatever the one queue
(:class:`~repro.serve.admission.FairRequestQueue`) would pop next, so
the batcher never learns whether its lanes are per tenant or shared.
Nothing here sleeps or reads wall time, so every schedule the batcher
produces is replayable.
"""

from __future__ import annotations

import math

from repro.serve.admission import FairRequestQueue
from repro.serve.queue import Request

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Close-on-size-or-age batching policy over the serving queue."""

    def __init__(self, max_batch_size: int = 8, max_wait_s: float = 0.0):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_s < 0 or not math.isfinite(max_wait_s):
            raise ValueError(f"max_wait_s must be finite and >= 0, got {max_wait_s}")
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s

    def ready_at(self, queue: FairRequestQueue, now_s: float) -> float | None:
        """Earliest virtual time a batch could close; None when queue empty.

        ``now_s`` when the size trigger has already tripped (or the
        oldest request has already aged out); otherwise the future
        instant the oldest request reaches ``max_wait_s``.
        """
        if len(queue) == 0:
            return None
        if len(queue) >= self.max_batch_size:
            return now_s
        return max(now_s, queue.peek().arrival_s + self.max_wait_s)

    def take(self, queue: FairRequestQueue) -> list[Request]:
        """Pop the closing batch: up to ``max_batch_size`` oldest requests.

        The caller decides *when* (via :meth:`ready_at`); ``take`` only
        decides *what*. Expired requests are the server's concern — it
        filters them against the clock before dispatching.
        """
        return [queue.pop() for _ in range(min(len(queue), self.max_batch_size))]
