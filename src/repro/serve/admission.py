"""The serving queue and tenant-aware admission: priority classes,
weighted fair queueing, and per-tenant token-bucket rate limits.

A production endpoint serving millions of users is always multi-tenant:
an interactive product surface, batch analytics jobs, and free-tier
traffic all share one replica fleet, and the front door must keep one
tenant's burst from starving the others. This module is that front
door: :class:`FairRequestQueue`, the one bounded queue every server
runs on, and the :class:`AdmissionController` that hands it tenant
specs and rate-limits in front of it:

- **priority classes** — every :class:`TenantSpec` carries a priority
  (0 = highest). The scheduler is strict across classes: as long as a
  higher class has queued work, lower classes wait.
- **weighted fair queueing** — inside a priority class, tenants share
  capacity in proportion to their weights via start-time fair queueing
  (SFQ, Goyal et al.): each request gets a virtual *finish tag*
  ``F = max(V, F_prev_of_tenant) + 1/weight`` and the queue always pops
  the smallest tag. Backlogged tenants therefore drain at a
  weight-proportional rate, and no backlogged tenant starves —
  the fairness property the hypothesis campaign pins.
- **token-bucket rate limits** — each tenant may carry a sustained
  ``rate_limit`` (requests/s of virtual time) with a ``burst`` bucket.
  Requests beyond the bucket are rejected at the door with reason
  ``rate_limited`` *before* touching the shared queue, so an abusive
  tenant cannot consume the backpressure budget of the others.

Everything runs on virtual time and is a pure function of the workload
and the specs — scheduling decisions replay bit-identically, which is
what lets the property campaign assert fairness on exact counts.

Who decides the lane: the constructor, once. A queue built from specs
(the controller's) has a lane per tenant; a queue built without — what
a server with no :class:`AdmissionController` gets — has one shared
lane, where SFQ degenerates to arrival order: the plain bounded FIFO of
PR 5 for any mix of tenant labels, byte-identical schedules included
(the differential suite pins that no-behaviour-change contract).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from repro.serve.queue import DeadlineIndex, Request

__all__ = [
    "TenantSpec",
    "TokenBucket",
    "FairRequestQueue",
    "AdmissionController",
]


@dataclass(frozen=True)
class TenantSpec:
    """Admission contract of one tenant.

    Parameters
    ----------
    name:
        Tenant id, stamped onto every request and response.
    weight:
        Fair-queueing weight inside the tenant's priority class; a
        tenant with twice the weight drains twice as fast under
        contention.
    priority:
        Priority class, 0 = highest; strict priority across classes.
    rate_limit:
        Sustained admission rate in requests per virtual second, or
        ``None`` for unlimited.
    burst:
        Token-bucket depth (requests admitted back-to-back from a full
        bucket). Defaults to ``max(1, rate_limit)`` when rate-limited.
    """

    name: str
    weight: float = 1.0
    priority: int = 0
    rate_limit: float | None = None
    burst: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.priority < 0:
            raise ValueError(f"priority must be >= 0, got {self.priority}")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError(f"rate_limit must be positive, got {self.rate_limit}")
        if self.burst is not None and self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")


class TokenBucket:
    """Deterministic token bucket on virtual time.

    Refills continuously at ``rate`` tokens per virtual second up to
    ``burst``; :meth:`try_take` consumes one token or refuses. Lazy
    refill (computed from the last take's timestamp) keeps the bucket
    O(1) per request with no background events.
    """

    def __init__(self, rate: float, burst: float, start_s: float = 0.0):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_s = float(start_s)

    def available(self, now_s: float) -> float:
        """Tokens in the bucket at virtual time ``now_s`` (no side effect)."""
        return min(self.burst, self._tokens + (now_s - self._last_s) * self.rate)

    def try_take(self, now_s: float) -> bool:
        """Consume one token at ``now_s``; False when the bucket is dry."""
        self._tokens = self.available(now_s)
        self._last_s = now_s
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class _TenantLane:
    """Per-tenant FIFO plus its SFQ finish-tag state."""

    __slots__ = ("spec", "items", "last_finish")

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        self.items: deque[tuple[float, Request]] = deque()  # (finish_tag, req)
        self.last_finish = 0.0


class FairRequestQueue:
    """The bounded serving queue: strict priority, then weighted fair.

    Lanes of ``(finish_tag, request)``, one SFQ virtual clock, one
    :class:`~repro.serve.queue.DeadlineIndex` and one capacity bound —
    the only buffer between admission and the replica pool. ``push``
    refuses work once ``capacity`` requests are waiting (the caller
    turns that into a ``rejected(queue_full)`` response); ``push_front``
    is reserved for fault requeues and bypasses the bound, so a request
    the service already admitted is never dropped by its own recovery
    path.

    With ``specs`` every tenant has its own lane (unknown tenants a
    default one on first sight) and requests leave in SFQ order; with
    ``specs=None`` every label shares one lane and arrival, rejection,
    requeue and expiry order ignore the tenant label entirely.

    The capacity bound is global across tenants (it models the shared
    admission buffer); per-tenant protection against a hog filling it
    is the token bucket's job, upstream in the
    :class:`AdmissionController`.
    """

    def __init__(self, capacity: int, specs: list[TenantSpec] | tuple | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._shared = specs is None
        self._lanes: dict[str, _TenantLane] = {}
        for spec in specs or ():
            if spec.name in self._lanes:
                raise ValueError(f"duplicate tenant spec {spec.name!r}")
            self._lanes[spec.name] = _TenantLane(spec)
        self._virtual = 0.0
        self._n = 0
        self._deadlines = DeadlineIndex()

    def _lane(self, tenant: str) -> _TenantLane:
        key = "" if self._shared else tenant
        lane = self._lanes.get(key)
        if lane is None:
            # Spec names must be non-empty; the anonymous (and the
            # shared) lane is keyed "" but carries the placeholder "-".
            lane = self._lanes[key] = _TenantLane(TenantSpec(key or "-"))
        return lane

    def spec_for(self, tenant: str) -> TenantSpec:
        """The spec of the lane ``tenant`` queues in; unknown tenants
        get a default one (weight 1, priority 0, unlimited)."""
        return self._lane(tenant).spec

    def __len__(self) -> int:
        return self._n

    @property
    def full(self) -> bool:
        """True when a ``push`` would be refused."""
        return self._n >= self.capacity

    def push(self, request: Request) -> bool:
        """Admit at the tenant's tail with a fresh SFQ finish tag."""
        if self.full:
            return False
        lane = self._lane(request.tenant)
        tag = max(self._virtual, lane.last_finish) + 1.0 / lane.spec.weight
        lane.last_finish = tag
        lane.items.append((tag, request))
        self._n += 1
        self._deadlines.add(request)
        return True

    def push_front(self, request: Request) -> None:
        """Requeue a faulted request at its tenant's head (bound-exempt).

        The request re-enters with a tag no later than the current
        virtual time, so it is the next thing its lane serves — the
        FIFO-order-preserving requeue contract of the fault path.
        """
        lane = self._lane(request.tenant)
        head_tag = lane.items[0][0] if lane.items else lane.last_finish
        lane.items.appendleft((min(self._virtual, head_tag), request))
        self._n += 1
        self._deadlines.add(request)

    def _head_lane(self) -> _TenantLane | None:
        """The lane whose head request the scheduler picks next."""
        best: _TenantLane | None = None
        for lane in self._lanes.values():
            if not lane.items:
                continue
            # Strict priority first, then smallest finish tag; req_id is
            # the total deterministic tie-break (field by field, no tuple).
            p, (tag, req) = lane.spec.priority, lane.items[0]
            if best is None or p < bp or p == bp and (
                tag < btag or tag == btag and req.req_id < bid
            ):
                best, bp, btag, bid = lane, p, tag, req.req_id
        return best

    def peek(self) -> Request:
        """The request :meth:`pop` would return, without removing it."""
        lane = self._head_lane()
        if lane is None:
            raise IndexError("peek from an empty FairRequestQueue")
        return lane.items[0][1]

    def pop(self) -> Request:
        """Remove and return the scheduler's next request (SFQ order)."""
        lane = self._head_lane()
        if lane is None:
            raise IndexError("pop from an empty FairRequestQueue")
        tag, request = lane.items.popleft()
        self._virtual = max(self._virtual, tag)
        self._n -= 1
        self._deadlines.discard(request)
        return request

    def min_deadline_s(self) -> float | None:
        """Earliest deadline among waiting requests (any tenant); O(1)
        amortised, read off the shared :class:`DeadlineIndex`."""
        return self._deadlines.min_s()

    def remove_expired(self, now_s: float) -> list[Request]:
        """Remove every request whose deadline is ``<= now_s`` (all lanes).

        Requests at exactly their deadline go too: with strictly
        positive service times they could only be delivered late.
        Returned in req_id order across tenant lanes, in queue order
        from the shared lane (a requeue can put a younger id ahead), so
        timeout responses are emitted deterministically. No lane is
        walked unless the index says something is due.
        """
        dead = self._deadlines.pop_due(now_s)
        if not dead:
            return []
        expired: list[Request] = []
        for lane in self._lanes.values():
            gone = [r for _, r in lane.items if r.req_id in dead]
            if gone:
                lane.items = deque(
                    (t, r) for t, r in lane.items if r.req_id not in dead
                )
                expired.extend(gone)
        self._n -= len(expired)
        if not self._shared:
            expired.sort(key=lambda r: r.req_id)
        return expired

    def depth_by_tenant(self) -> dict[str, int]:
        """Waiting requests per tenant label (observability hook)."""
        return dict(
            Counter(r.tenant for lane in self._lanes.values() for _, r in lane.items)
        )


class AdmissionController:
    """Front-door policy: per-tenant token buckets over a fair queue.

    Built from the tenant specs, it owns the
    :class:`FairRequestQueue` the server should run on and answers one
    question per arriving request: *may this tenant enqueue right now?*
    (``None`` = yes, else a reject reason from
    :data:`repro.serve.queue.REJECT_REASONS`). The queue-full check
    stays with the queue itself — the controller only adds the
    rate-limit layer in front.
    """

    def __init__(self, specs: list[TenantSpec] | tuple, capacity: int):
        self.specs = {s.name: s for s in specs}
        if len(self.specs) != len(list(specs)):
            raise ValueError("duplicate tenant names in admission specs")
        self.queue = FairRequestQueue(capacity, list(specs))
        self._buckets: dict[str, TokenBucket] = {}
        for spec in specs:
            if spec.rate_limit is not None:
                burst = spec.burst if spec.burst is not None else max(
                    1.0, spec.rate_limit
                )
                self._buckets[spec.name] = TokenBucket(spec.rate_limit, burst)

    def admit_reason(self, tenant: str, now_s: float) -> str | None:
        """``None`` to admit, else the reject reason (``rate_limited``)."""
        bucket = self._buckets.get(tenant)
        if bucket is not None and not bucket.try_take(now_s):
            return "rate_limited"
        return None
