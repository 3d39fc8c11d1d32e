"""Requests, responses, and the deadline index.

The records of the serving front door. A :class:`Request` is one image
with an arrival time and an optional absolute deadline; a
:class:`Response` is its single terminal record — exactly one per
submitted request, whatever happens in between (cache hit, batching,
replica fault, timeout). Between admission and the replica pool a
request waits in the package's one bounded queue,
:class:`~repro.serve.admission.FairRequestQueue`, which keeps a
:class:`DeadlineIndex` beside its lanes so the serving loop reads the
earliest waiting deadline, and sweeps what is due, without scanning.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = [
    "REQUEST_STATUSES",
    "REJECT_REASONS",
    "Request",
    "Response",
    "DeadlineIndex",
]

#: Terminal statuses a request can end in.
REQUEST_STATUSES = ("ok", "timeout", "rejected")

#: Why a request was rejected (attribute on ``rejected`` responses).
REJECT_REASONS = ("queue_full", "replica_failure", "rate_limited")


@dataclass(slots=True)
class Request:
    """One admitted inference request.

    Attributes
    ----------
    req_id:
        Server-assigned monotonically increasing id.
    image:
        The ``(C, H, W)`` input image.
    arrival_s:
        Virtual time the request was submitted.
    deadline_s:
        Absolute virtual deadline, or ``None`` for best-effort. A request
        whose deadline passes before its features are delivered receives
        a ``timeout`` response, never a late ``ok``.
    digest:
        Content digest of ``image`` (cache key); empty when caching is
        disabled.
    retries:
        How many times the request has been requeued after a replica
        fault. The pool's contract is requeue-once-then-fail.
    tenant:
        Admission tenant the request belongs to (``""`` = the default,
        anonymous tenant — the single-tenant path of PR 5).
    """

    req_id: int
    image: np.ndarray
    arrival_s: float
    deadline_s: float | None = None
    digest: str = ""
    retries: int = 0
    tenant: str = ""


@dataclass(frozen=True, slots=True)
class Response:
    """The single terminal record of one request.

    ``latency_s`` is ``done_s - arrival_s`` in virtual time; for
    ``rejected``/``timeout`` responses it measures time-to-verdict, and
    ``features`` is ``None``. ``tenant`` carries the admission tenant
    (``""`` on the single-tenant path) so per-tenant breakdowns can be
    computed from responses alone.
    """

    req_id: int
    status: str
    arrival_s: float
    done_s: float
    features: np.ndarray | None = None
    reason: str = ""
    cache_hit: bool = False
    replica_id: int | None = None
    batch_id: int | None = None
    tenant: str = ""

    def __post_init__(self) -> None:
        if self.status not in REQUEST_STATUSES:
            raise ValueError(
                f"unknown status {self.status!r}; expected one of {REQUEST_STATUSES}"
            )
        if self.status == "rejected" and self.reason not in REJECT_REASONS:
            raise ValueError(
                f"rejected responses need a reason from {REJECT_REASONS}, "
                f"got {self.reason!r}"
            )

    @property
    def latency_s(self) -> float:
        """Virtual seconds from arrival to the terminal verdict."""
        return self.done_s - self.arrival_s


class DeadlineIndex:
    """Which waiting requests carry a deadline, earliest first.

    A heap of ``(deadline_s, req_id)`` with lazy deletion: ``_live``
    holds the ids waiting right now, and an entry whose id is not live
    is stale — dropped when it surfaces, or wholesale once stale entries
    outnumber live ones two to one. The owning queue calls :meth:`add`
    where a request enters (``push`` / ``push_front``) and
    :meth:`discard` where one leaves (``pop``); :meth:`pop_due` is the
    only other site that changes membership. Ids are unique and a
    request's deadline never changes, so a requeued request's new entry
    equals the stale twin of its first admission: whichever surfaces
    first expires it, and the other finds the id no longer live.
    """

    def __init__(self):
        self._heap: list[tuple[float, int]] = []
        self._live: set[int] = set()

    def add(self, request: Request) -> None:
        """``request`` starts waiting (no-op without a deadline)."""
        if request.deadline_s is not None:
            heapq.heappush(self._heap, (request.deadline_s, request.req_id))
            self._live.add(request.req_id)

    def discard(self, request: Request) -> None:
        """``request`` stops waiting (no-op without a deadline)."""
        if request.deadline_s is not None:
            self._live.discard(request.req_id)
            if len(self._heap) > 2 * len(self._live) + 64:
                self._heap = sorted({e for e in self._heap if e[1] in self._live})

    def min_s(self) -> float | None:
        """Earliest deadline among waiting requests; None when none carry one."""
        heap = self._heap
        while heap and heap[0][1] not in self._live:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def pop_due(self, now_s: float) -> set[int]:
        """Ids of waiting requests whose deadline is ``<= now_s``; they
        stop waiting (the caller removes them from its own storage)."""
        due: set[int] = set()
        while self._heap and self._heap[0][0] <= now_s:
            due.add(heapq.heappop(self._heap)[1])
        due &= self._live
        self._live -= due
        return due
