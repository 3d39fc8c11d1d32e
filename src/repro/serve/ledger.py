"""The serving ledger: what was submitted, and how each request ended.

:class:`ServerStats` is the authoritative account of a server's life —
the conservation law ``submitted == served + rejected + timed_out``, in
aggregate and per tenant (:class:`TenantCounts`) — and
:meth:`ServerStats.book` is the only code in the package that moves an
outcome field: given a terminal :class:`~repro.serve.queue.Response` it
picks the ledger field and the tenant slice from the response alone.
The event loop calls it from a single site (``InferenceServer._finish``),
so a request is accounted once by construction; :func:`book_counters`
puts a run's verdicts on the bus, one counter per cell, and
:func:`latency_stats` recomputes latency percentiles from responses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from repro.serve.queue import Response
from repro.telemetry import TelemetryBus

__all__ = ["TenantCounts", "ServerStats", "book_counters", "latency_stats"]


def tenant_attrs(tenant: str) -> dict:
    """Counter attrs for one tenant (empty on the anonymous path,
    keeping single-tenant event streams byte-stable)."""
    return {"tenant": tenant} if tenant else {}


@dataclass
class TenantCounts:
    """Per-tenant slice of the conservation ledger."""

    submitted: int = 0
    served: int = 0
    rejected: int = 0
    timed_out: int = 0

    def reconciles(self) -> bool:
        """True iff submitted == served + rejected + timed_out."""
        return self.submitted == self.served + self.rejected + self.timed_out

    def to_json(self) -> dict:
        """The counters as one flat JSON-ready dict, in declared order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ServerStats:
    """Authoritative serving counters (telemetry mirrors these).

    Every admitted request ends in exactly one of ``served``,
    ``rejected_queue_full``, ``rejected_replica_failure``,
    ``rejected_rate_limited`` or ``timed_out`` — :meth:`reconciles` is
    the conservation law the chaos suite asserts under fault injection.
    """

    submitted: int = 0
    served: int = 0
    rejected_queue_full: int = 0
    rejected_replica_failure: int = 0
    rejected_rate_limited: int = 0
    timed_out: int = 0
    requeued: int = 0
    replica_faults: int = 0
    batches: int = 0
    batched_images: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    tenants: dict = field(default_factory=dict)

    @property
    def rejected(self) -> int:
        """Total rejections (backpressure + rate limits + post-retry
        replica failures)."""
        return (
            self.rejected_queue_full
            + self.rejected_replica_failure
            + self.rejected_rate_limited
        )

    def tenant(self, name: str) -> TenantCounts:
        """The (auto-created) per-tenant ledger slice for ``name``."""
        counts = self.tenants.get(name)
        if counts is None:
            counts = self.tenants[name] = TenantCounts()
        return counts

    def book(self, response: Response) -> None:
        """Account one terminal verdict: aggregate field and tenant
        slice, both read off the response."""
        tenant = self.tenant(response.tenant)
        if response.status == "ok":
            self.served += 1
            tenant.served += 1
        elif response.status == "timeout":
            self.timed_out += 1
            tenant.timed_out += 1
        else:
            if response.reason == "queue_full":
                self.rejected_queue_full += 1
            elif response.reason == "replica_failure":
                self.rejected_replica_failure += 1
            else:
                self.rejected_rate_limited += 1
            tenant.rejected += 1

    def reconciles(self) -> bool:
        """True iff submitted == served + rejected + timed_out, both in
        aggregate and within every tenant's slice."""
        return self.submitted == self.served + self.rejected + self.timed_out and all(
            t.reconciles() for t in self.tenants.values()
        )

    def to_json(self) -> dict:
        """All counters as one flat JSON-ready dict in declared order,
        plus the tenant slices (sorted by name) when there are any."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        tenants = out.pop("tenants")
        if tenants:
            out["tenants"] = {name: t.to_json() for name, t in sorted(tenants.items())}
        return out


class _Cells(dict):
    """``(name, *attrs) -> count`` in first-occurrence order; ``counter``
    mirrors :meth:`TelemetryBus.counter` so each name stays a literal at
    one call site, where ``tools/lint.py`` checks it."""

    def counter(self, name: str, value: int, **attrs) -> None:
        key = (name, *attrs.items())
        self[key] = self.get(key, 0) + value


def book_counters(bus: TelemetryBus, responses: list[Response], cached: bool) -> None:
    """One ``bus.counter(name, count, **attrs)`` per distinct cell of
    ``responses`` (in decision order), in first-occurrence order.

    A response counts as submitted; then, with the cache on (``cached``)
    and past the rate limit (the order ``_admit`` checks them in), as a
    cache hit or miss; then as served, timed out (``where``: ``batch_id
    is None`` never left the queue) or rejected (``reason``). Responses
    are folded by the fields read first: a few calls a run, not three a
    request.
    """
    kinds = Counter(
        (r.tenant, r.status, r.reason, r.cache_hit, r.batch_id is None)
        for r in responses
    )
    cells = _Cells()
    for (tenant, status, reason, hit, queued), n in kinds.items():
        t = tenant_attrs(tenant)
        cells.counter("serve.submitted", n, **t)
        if hit:
            cells.counter("serve.cache_hit", n, **t)
        elif cached and reason != "rate_limited":
            cells.counter("serve.cache_miss", n, **t)
        if status == "ok":
            cells.counter("serve.served", n, **t)
        elif status == "timeout":
            where = "queued" if queued else "inflight"
            cells.counter("serve.timeout", n, where=where, **t)
        else:
            cells.counter("serve.rejected", n, reason=reason, **t)
    for (name, *attrs), n in cells.items():
        bus.counter(name, n, **dict(attrs))


def _latency_block(ok: list[Response]) -> dict:
    """The aggregate latency keys over one set of ``ok`` responses."""
    lat = np.array([r.latency_s for r in ok], dtype=float)
    if lat.size == 0:
        return {"n_ok": 0, **dict.fromkeys(("p50_ms", "p99_ms", "mean_ms", "max_ms"))}
    return {
        "n_ok": int(lat.size),
        "p50_ms": float(np.percentile(lat, 50) * 1e3),
        # method="higher" keeps the tail statistic an actually-observed
        # latency: linear interpolation would report a p99 *below* the
        # worst response whenever fewer than ~100 samples are in hand.
        "p99_ms": float(np.percentile(lat, 99, method="higher") * 1e3),
        "mean_ms": float(lat.mean() * 1e3),
        "max_ms": float(lat.max() * 1e3),
    }


def latency_stats(responses: list[Response]) -> dict:
    """p50/p99/mean/max latency (ms, virtual) over the ``ok`` responses.

    The aggregate keys are unchanged from the single-tenant server; when
    any response carries a tenant, a ``"tenants"`` key is added mapping
    each tenant name to the same block computed over that tenant's ok
    responses (sorted by name, so the dict renders deterministically).
    """
    ok = [r for r in responses if r.status == "ok"]
    out = _latency_block(ok)
    tenants = sorted({r.tenant for r in responses if r.tenant})
    if tenants:
        out["tenants"] = {
            name: _latency_block([r for r in ok if r.tenant == name])
            for name in tenants
        }
    return out
