"""The online inference server: one deterministic discrete-event loop.

:class:`InferenceServer` turns a frozen encoder into a load-servable
model by composing the pieces of this package around a single event
loop on virtual time:

- **admission** — :meth:`InferenceServer.submit` stamps the request with
  the clock, consults the :class:`~repro.serve.cache.LRUFeatureCache`
  (a hit is served instantly, skipping the encoder entirely), and pushes
  into the bounded :class:`~repro.serve.admission.FairRequestQueue`; a
  full queue rejects at the door (backpressure);
- **batching** — the :class:`~repro.serve.batcher.MicroBatcher` closes a
  batch at ``max_batch_size`` requests or ``max_wait_s`` of head-of-line
  age, whichever first;
- **dispatch** — the :class:`~repro.serve.replica.ReplicaPool` runs the
  real NumPy forward on the least-loaded replica, occupying it for a
  service window estimated by the hardware cost model;
- **delivery** — completions land back on the loop; requests whose
  deadline passed get ``timeout`` verdicts, replica faults trigger
  requeue-once-then-fail.

This module is the event kernel only. Every handler that ends a request
builds its :class:`~repro.serve.queue.Response` and hands it to
``_finish``, the single site where a verdict is booked; which ledger
field, tenant slice and counter that moves is
:meth:`repro.serve.ledger.ServerStats.book`'s rule, not the loop's.

The loop processes one event per iteration in a fixed priority order
(completions, then arrivals, then autoscale ticks, then dispatch, then
expiry sweeps), so the entire schedule — every batch composition, every
latency, every verdict — is a pure function of (workload,
configuration). Each piece of per-request work is done once: a run's
arrivals are checked in one pass at the door, each distinct image is
hashed once a run, and the next event is a running minimum over indexed
tops (the in-flight heap, the queue's
:class:`~repro.serve.queue.DeadlineIndex`) whose dispatch instant the
dispatch handler reuses (DESIGN.md §9). Numerics are
schedule-independent by construction: the delivered features are
bit-identical to :func:`repro.eval.features.extract_features` on the
same images, whatever batches the policy forms.

An optional :class:`~repro.serve.admission.AdmissionController`
(token buckets, a lane per tenant) and an optional
:class:`~repro.serve.autoscale.Autoscaler` (resizes the pool between
events) compose in; the constructor says what their absence means.

Telemetry: with a bus attached (ideally sharing the server's virtual
clock), the loop publishes ``serve.queue_depth``/``serve.batch_size``
gauges, ``serve.batch``/``serve.infer`` spans, and
``serve.submitted``/``serve.served``/``serve.rejected``/``serve.timeout``
/``serve.cache_hit``/``serve.cache_miss``/``serve.requeued``/
``serve.replica_fault`` counters that reconcile exactly:
``submitted == served + rejected + timed out`` — in aggregate and,
via the ``tenant=`` attribute, per tenant.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.hardware.gpu import GpuSpec
from repro.serve.admission import AdmissionController, FairRequestQueue
from repro.serve.autoscale import Autoscaler
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import LRUFeatureCache, image_digest
from repro.serve.clock import VirtualClock
from repro.serve.ledger import ServerStats, tenant_attrs
from repro.serve.queue import Request, Response
from repro.serve.replica import (
    Replica,
    ReplicaError,
    ReplicaFaultPlan,
    ReplicaPool,
    ServiceTimeModel,
)
from repro.telemetry import NULL_BUS, TelemetryBus

__all__ = ["InferenceServer"]


@dataclass(order=True, slots=True)
class _Inflight:
    """One dispatched batch awaiting its virtual completion instant;
    orders by ``(finish_s, batch_id)``, the delivery order."""

    finish_s: float
    batch_id: int
    replica: Replica = field(compare=False)
    requests: list[Request] = field(compare=False)
    dispatch_s: float = field(compare=False)
    service_s: float = field(compare=False)
    features: np.ndarray | None = field(default=None, compare=False)
    error: ReplicaError | None = field(default=None, compare=False)


class InferenceServer:
    """Deterministic online serving of a frozen encoder.

    Parameters
    ----------
    model:
        Anything with ``encode_features(images) -> (B, W)`` — the frozen
        MAE/ViT encoder (optionally wrapped with a probe head upstream).
    services:
        One service-time model per replica (heterogeneous pools allowed).
        When omitted, ``n_replicas`` copies of a
        :class:`~repro.serve.replica.ServiceTimeModel` are built from
        ``model.cfg.encoder`` and ``gpu``.
    n_replicas, gpu:
        Pool size and GCD spec for the default service models
        (``gpu=None`` uses the Frontier MI250X GCD defaults).
    max_batch_size, max_wait_s:
        The micro-batcher's close-on-size / close-on-age knobs.
    queue_capacity:
        Bound of the admission queue (backpressure point).
    cache_capacity:
        LRU feature-cache entries; ``0`` disables caching.
    stall_timeout_s:
        Watchdog: virtual seconds after which a stalled replica's batch
        is declared failed.
    clock:
        The virtual clock; supply your own to share it with a telemetry
        bus (``TelemetryBus(sink, clock=clock.now)``).
    telemetry:
        Bus for gauges/spans/counters; defaults to the disabled bus.
    fault_plan:
        Deterministic replica-fault schedule for chaos testing.
    admission:
        Optional :class:`~repro.serve.admission.AdmissionController`:
        per-tenant token buckets in front of per-tenant lanes. When
        given, the server runs on the controller's
        :class:`~repro.serve.admission.FairRequestQueue` (its capacity
        wins; ``queue_capacity`` is ignored). ``None`` builds the same
        queue with one shared lane: a bounded FIFO in which the tenant
        label is bookkeeping only — byte-identical to the pre-admission
        server.
    autoscaler:
        Optional :class:`~repro.serve.autoscale.Autoscaler` that
        grows/shrinks the replica pool between events from queue-depth
        and windowed-p99 telemetry. ``None`` keeps the fixed fleet.
    replica_prices:
        Optional per-replica USD/hour aligned with ``services`` (the
        capacity planner's :meth:`~repro.serve.planner.CapacityPlan.prices`),
        feeding the pool's measured-cost ledger. ``None`` prices the
        initial fleet at zero.
    """

    def __init__(
        self,
        model,
        *,
        services: list | None = None,
        n_replicas: int = 1,
        gpu: GpuSpec | None = None,
        max_batch_size: int = 8,
        max_wait_s: float = 0.0,
        queue_capacity: int = 64,
        cache_capacity: int = 0,
        stall_timeout_s: float = 1.0,
        clock: VirtualClock | None = None,
        telemetry: TelemetryBus | None = None,
        fault_plan: ReplicaFaultPlan | None = None,
        admission: AdmissionController | None = None,
        autoscaler: Autoscaler | None = None,
        replica_prices: list | None = None,
    ):
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        if stall_timeout_s <= 0:
            raise ValueError(
                f"stall_timeout_s must be positive, got {stall_timeout_s}"
            )
        if services is None:
            try:
                encoder_cfg = model.cfg.encoder
            except AttributeError as err:
                raise ValueError(
                    "model has no .cfg.encoder; pass explicit per-replica "
                    "`services` (e.g. FixedServiceModel) instead"
                ) from err
            services = [
                ServiceTimeModel(encoder_cfg, gpu if gpu is not None else GpuSpec())
            ] * n_replicas
        self.clock = clock if clock is not None else VirtualClock()
        self.telemetry = telemetry if telemetry is not None else NULL_BUS
        self.batcher = MicroBatcher(max_batch_size, max_wait_s)
        self.admission = admission
        # The controller's queue has a lane per tenant; without one,
        # every label shares a single lane (a bounded FIFO).
        self.queue = (
            FairRequestQueue(queue_capacity) if admission is None else admission.queue
        )
        self.autoscaler = autoscaler
        self.pool = ReplicaPool(model, services, prices=replica_prices)
        self.cache = LRUFeatureCache(cache_capacity) if cache_capacity else None
        self.stall_timeout_s = stall_timeout_s
        self.fault_plan = fault_plan
        self.stats = ServerStats()
        self.responses: list[Response] = []
        # One flag per req_id (ids are dense from 0): set once it holds
        # its verdict. A byte a request, where a set cost ~90.
        self._decided = bytearray()
        self._inflight: list[_Inflight] = []  # heap, earliest finish first
        self._next_batch_id = 0

    # -- admission -----------------------------------------------------------

    def submit(
        self,
        image: np.ndarray,
        deadline_s: float | None = None,
        tenant: str = "",
    ) -> int:
        """Admit one image at the current virtual time; returns its req_id.

        The verdict may be immediate (rate-limited or full queue ->
        ``rejected``; cache hit -> ``ok``); otherwise the request waits
        for the batcher. ``deadline_s`` is an *absolute* virtual time;
        ``tenant`` selects the admission lane (priority, weight, rate
        limit) when an :class:`AdmissionController` is attached. A NaN or
        already-past deadline, or an image that is not ``(C, H, W)``, is
        a ``ValueError`` before anything is counted; ``+inf`` is served
        best-effort, like ``None``.
        """
        now = self.clock.now()
        self._check_door([(now, image, deadline_s, tenant)])
        return self._admit(image, deadline_s, tenant, now, {})

    def _admit(self, image, deadline_s, tenant: str, now: float, digests: dict) -> int:
        """Admit one checked arrival. ``digests`` maps ``id(image)`` to its
        digest while the caller holds the images (one ``run()``), so each
        distinct image is hashed once."""
        req_id = len(self._decided)
        self._decided.append(0)
        self.stats.submitted += 1
        self.stats.tenant(tenant).submitted += 1
        # The default, disabled bus is not called at all on this path.
        bus = self.telemetry if self.telemetry.enabled else None
        tattrs = tenant_attrs(tenant) if bus else None
        if bus:
            bus.counter("serve.submitted", **tattrs)
        if self.admission is not None:
            reason = self.admission.admit_reason(tenant, now)
            if reason is not None:
                self._finish(
                    Response(req_id, "rejected", now, now, reason=reason, tenant=tenant)
                )
                return req_id
        digest = ""
        if self.cache is not None:
            digest = digests.get(id(image))
            if digest is None:
                digest = digests[id(image)] = image_digest(image)
            row = self.cache.get(digest)
            if row is not None:
                self.stats.cache_hits += 1
                if bus:
                    bus.counter("serve.cache_hit", **tattrs)
                self._finish(
                    Response(
                        req_id, "ok", now, now, features=row, cache_hit=True,
                        tenant=tenant,
                    )
                )
                return req_id
            self.stats.cache_misses += 1
            if bus:
                bus.counter("serve.cache_miss", **tattrs)
        request = Request(req_id, image, now, deadline_s, digest, tenant=tenant)
        if not self.queue.push(request):
            self._finish(
                Response(
                    req_id, "rejected", now, now, reason="queue_full", tenant=tenant
                )
            )
            return req_id
        if bus:
            bus.gauge("serve.queue_depth", len(self.queue))
        return req_id

    # -- the event loop ------------------------------------------------------

    def run(self, workload) -> list[Response]:
        """Serve a timed workload to completion; returns its responses.

        ``workload`` is a sequence of ``(arrival_s, image)``,
        ``(arrival_s, image, deadline_s)``, or
        ``(arrival_s, image, deadline_s, tenant)`` tuples with
        non-decreasing finite arrival times (absolute virtual seconds,
        not before the clock's current time) and ``(C, H, W)`` images.
        The whole workload passes :meth:`submit`'s checks in one pass
        before the clock moves or anything is admitted: a non-finite
        arrival, a NaN deadline or one before its arrival, or a
        misshapen image is a ``ValueError`` that leaves the server
        untouched. The loop drains everything — queue and in-flight
        batches included — and returns this workload's responses sorted
        by request id.
        """
        # Pad the short forms with the defaults they leave out.
        return self._serve([
            (float(t), image, *rest, *(None, "")[len(rest):])
            for t, image, *rest in workload
        ])

    def run_traffic(self, events) -> list[Response]:
        """Serve a generated open-loop workload to completion.

        ``events`` is a time-ordered list of
        :class:`~repro.serve.traffic.TrafficEvent` (the output of
        :func:`~repro.serve.traffic.generate_workload`); each event's
        tenant rides into admission, so the token buckets and the
        per-tenant ledger see the same stream the generator drew. The
        events are checked as :meth:`run` checks its tuples.
        """
        return self._serve(
            [(float(ev.t_s), ev.image, ev.deadline_s, ev.tenant) for ev in events]
        )

    def drain(self) -> list[Response]:
        """Run the loop with no new arrivals until queue and replicas are idle."""
        return self.run([])

    def _serve(self, arrivals: list[tuple]) -> list[Response]:
        self._check_door(arrivals)
        first_new = len(self.responses)
        self._loop(arrivals)
        return sorted(self.responses[first_new:], key=attrgetter("req_id"))

    def _check_door(self, arrivals: list[tuple]) -> None:
        """One pass over ``(arrival_s, image, deadline_s, tenant)``: the
        order of the instants, then each arrival at its own instant (the
        clock reads ``arrival_s`` when it is admitted). ``not >=``
        rather than ``<``: NaN fails every comparison, and would
        otherwise be admitted and poison the deadline heap."""
        prev = self.clock.now()
        for i, (t, image, deadline, _) in enumerate(arrivals):
            if not prev <= t < math.inf:
                if not math.isfinite(t):
                    raise ValueError(f"arrival time must be finite, got {t}")
                if i == 0:
                    raise ValueError(f"first arrival {t} is before now ({prev})")
                raise ValueError(f"arrival times must be non-decreasing ({t} < {prev})")
            if deadline is not None and not deadline >= t:
                if deadline != deadline:
                    raise ValueError("deadline_s must not be NaN")
                raise ValueError(f"deadline {deadline} is already past (now={t})")
            if image.ndim != 3:
                raise ValueError(f"image must be (C, H, W), got {image.shape}")
            prev = t

    def _loop(self, arrivals: list[tuple]) -> None:
        digests: dict[int, str] = {}  # this run's images, by object
        n = len(arrivals)
        i = 0
        while i < n or len(self.queue) or self._inflight:
            t_arr = arrivals[i][0] if i < n else None
            t, dispatch_s = self._next_event_s(t_arr, self.clock.now())
            self.clock.advance_to(t)
            if self._deliver_due(t):
                continue
            if t_arr is not None and t_arr <= t:
                _, image, deadline, tenant = arrivals[i]
                i += 1
                self._admit(image, deadline, tenant, t_arr, digests)
                continue
            if self.autoscaler is not None and self.autoscaler.tick(
                t, len(self.queue), self.pool, self.telemetry
            ):
                continue
            if self._dispatch_due(t, dispatch_s):
                continue
            if not self._sweep_expired(t):
                raise RuntimeError(
                    f"serving loop made no progress at t={t} "
                    f"(queue={len(self.queue)}, inflight={len(self._inflight)})"
                )

    def _next_event_s(self, next_arrival_s: float | None, now: float) -> tuple:
        """Earliest instant any event category can fire: a running
        minimum over the indexes' tops (the loop runs only while an
        arrival, a queued request or an in-flight batch exists); and the
        instant a batch can be dispatched (``None`` with nothing queued),
        which ``_dispatch_due`` reuses: any event that fires before it
        ends the iteration, so queue and pool are still as read here."""
        t = math.inf if next_arrival_s is None else next_arrival_s
        if self._inflight:
            t = min(t, self._inflight[0].finish_s)
        dispatch_s = None
        if len(self.queue):
            dispatch_s = max(
                self.batcher.ready_at(self.queue, now), self.pool.earliest_free_s(now)
            )
            t = min(t, dispatch_s)
            deadline = self.queue.min_deadline_s()
            if deadline is not None:
                t = min(t, max(deadline, now))
        if self.autoscaler is not None:
            # Ticks only matter while the loop is live; the loop exits
            # (and ticking stops) once queue, arrivals and flight are
            # all drained.
            t = min(t, max(self.autoscaler.next_eval_s(), now))
        return t, dispatch_s

    # -- event handlers ------------------------------------------------------

    def _dispatch_due(self, now: float, dispatch_s: float | None) -> bool:
        """Close and dispatch one batch if the policy and a replica allow
        (both by ``dispatch_s``, the instant ``_next_event_s`` read)."""
        if dispatch_s is None or dispatch_s > now:
            return False
        # Expired requests must not burn a replica window: time them out
        # before the batch forms.
        self._sweep_expired(now)
        batch = self.batcher.take(self.queue)
        self.telemetry.gauge("serve.queue_depth", len(self.queue))
        if not batch:
            return True  # the sweep consumed the event
        replica = self.pool.select(now, len(batch))
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        self.stats.batches += 1
        self.stats.batched_images += len(batch)
        self.telemetry.gauge(
            "serve.batch_size", len(batch), replica=replica.replica_id
        )
        fault = None
        if self.fault_plan is not None:
            fault = self.fault_plan.consult(replica.replica_id, replica.dispatches)
        images = np.array([r.image for r in batch])
        features = error = None
        try:
            features, service_s = replica.run_batch(
                images, now, fault=fault, stall_timeout_s=self.stall_timeout_s
            )
        except ReplicaError as err:
            self.stats.replica_faults += 1
            self.telemetry.counter(
                "serve.replica_fault", kind=err.kind, replica=err.replica_id
            )
            error, service_s = err, err.detect_delay_s
        heapq.heappush(
            self._inflight,
            _Inflight(
                finish_s=now + service_s,
                batch_id=batch_id,
                replica=replica,
                requests=batch,
                dispatch_s=now,
                service_s=service_s,
                features=features,
                error=error,
            ),
        )
        return True

    def _deliver_due(self, now: float) -> bool:
        """Deliver every in-flight batch whose completion instant arrived,
        in ``(finish_s, batch_id)`` order — the order the heap pops."""
        delivered = False
        while self._inflight and self._inflight[0].finish_s <= now:
            batch = heapq.heappop(self._inflight)
            if batch.error is not None:
                self._deliver_failed(batch)
            else:
                self._deliver_ok(batch)
            delivered = True
        return delivered

    def _deliver_ok(self, batch: _Inflight) -> None:
        done = batch.finish_s
        bus = self.telemetry if self.telemetry.enabled else None
        if bus:
            bus.record_span(
                "serve.infer",
                batch.dispatch_s,
                batch.service_s,
                replica=batch.replica.replica_id,
                batch=len(batch.requests),
            )
            oldest = min(r.arrival_s for r in batch.requests)
            bus.record_span(
                "serve.batch",
                oldest,
                done - oldest,
                batch_id=batch.batch_id,
                replica=batch.replica.replica_id,
                batch=len(batch.requests),
            )
        for i, req in enumerate(batch.requests):
            row = batch.features[i]
            if self.cache is not None and req.digest:
                self.cache.put(req.digest, row)
            # A positive service window means finish > dispatch, so only
            # requests dispatched strictly before their deadline can
            # still make it; late completions are honest timeouts.
            late = req.deadline_s is not None and done > req.deadline_s
            self._finish(
                Response(
                    req.req_id,
                    "timeout" if late else "ok",
                    req.arrival_s,
                    done,
                    features=None if late else row.copy(),
                    replica_id=batch.replica.replica_id,
                    batch_id=batch.batch_id,
                    tenant=req.tenant,
                )
            )

    def _deliver_failed(self, batch: _Inflight) -> None:
        done = batch.finish_s
        # Requeue at the head in original order so recovered requests
        # keep their place in the FIFO; a request that already burned
        # its retry is rejected (requeue-once-then-fail).
        for req in reversed(batch.requests):
            if req.retries == 0:
                req.retries = 1
                self.queue.push_front(req)
                self.stats.requeued += 1
                self.telemetry.counter("serve.requeued", **tenant_attrs(req.tenant))
            else:
                self._finish(
                    Response(
                        req.req_id,
                        "rejected",
                        req.arrival_s,
                        done,
                        reason="replica_failure",
                        replica_id=batch.replica.replica_id,
                        batch_id=batch.batch_id,
                        tenant=req.tenant,
                    )
                )
        self.telemetry.gauge("serve.queue_depth", len(self.queue))

    def _sweep_expired(self, now: float) -> bool:
        """Time out every queued request whose deadline has arrived."""
        expired = self.queue.remove_expired(now)
        for req in expired:
            done = max(now, req.deadline_s)
            self._finish(
                Response(req.req_id, "timeout", req.arrival_s, done, tenant=req.tenant)
            )
        if expired:
            self.telemetry.gauge("serve.queue_depth", len(self.queue))
        return bool(expired)

    def _finish(self, response: Response) -> None:
        """The one place a verdict is booked: every handler above only
        builds the :class:`Response`; ledger, tenant slice and counter
        follow from it (:meth:`ServerStats.book`)."""
        if self._decided[response.req_id]:
            raise RuntimeError(
                f"request {response.req_id} already has a terminal response"
            )
        self._decided[response.req_id] = 1
        self.responses.append(response)
        # The default, disabled bus is not called at all per request.
        self.stats.book(response, self.telemetry if self.telemetry.enabled else None)
        # Feed the autoscaler's p99 window: serves and timeouts carry a
        # real time-to-verdict; instant door rejections would read as
        # zero latency and mask the very overload that caused them.
        if self.autoscaler is not None and response.status in ("ok", "timeout"):
            self.autoscaler.observe(response.latency_s)
