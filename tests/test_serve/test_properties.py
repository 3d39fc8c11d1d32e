"""Property campaign (hypothesis): micro-batcher invariants under
arbitrary arrival sequences.

For any workload and any batcher/queue/pool configuration:

- **conservation** — every submitted request gets exactly one terminal
  response: none dropped, none duplicated;
- **deadline honesty** — no request is served past its deadline; a
  missed deadline always surfaces as a recorded ``timeout``;
- **batch bound** — no dispatched batch exceeds ``max_batch_size``;
- **replica exclusivity** — service windows on one replica never
  overlap;
- **counter reconciliation** — ``submitted == served + rejected +
  timed out`` on the server's own books and on the telemetry bus;
- **indexes equal brute force** — the queue's deadline index and the
  in-flight heap answer exactly what a scan / a sort of the same
  contents would (the scanning implementations they replaced are kept
  here as the reference);
- **no specs, one lane** — the queue built without tenant specs is the
  bounded deque FIFO it replaced, whatever labels the requests carry
  (that FIFO survives here, standalone, as the twin).

Everything runs on virtual time, so hundreds of schedules execute in
milliseconds and every failing example shrinks to a replayable seed.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    AdmissionController,
    FairRequestQueue,
    FixedServiceModel,
    InferenceServer,
    ReplicaFaultPlan,
    ReplicaFaultSpec,
    Request,
    TenantSpec,
    VirtualClock,
)
from repro.telemetry import RecordingSink, TelemetryBus

from tests.test_serve.conftest import StubEncoder


def _finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


#: One request: (inter-arrival gap, relative deadline | None).
request_st = st.tuples(
    _finite(0.0, 0.05), st.one_of(st.none(), _finite(0.001, 0.2))
)

config_st = st.fixed_dictionaries(
    {
        "max_batch_size": st.integers(1, 8),
        "max_wait_s": _finite(0.0, 0.02),
        "queue_capacity": st.integers(1, 16),
        "n_replicas": st.integers(1, 3),
        "images_per_s": _finite(20.0, 2000.0),
        "cache_capacity": st.sampled_from([0, 4]),
    }
)


def _run(requests, cfg):
    clock = VirtualClock()
    bus = TelemetryBus(RecordingSink(), clock=clock.now)
    server = InferenceServer(
        StubEncoder(),
        services=[FixedServiceModel(cfg["images_per_s"])] * cfg["n_replicas"],
        max_batch_size=cfg["max_batch_size"],
        max_wait_s=cfg["max_wait_s"],
        queue_capacity=cfg["queue_capacity"],
        cache_capacity=cfg["cache_capacity"],
        clock=clock,
        telemetry=bus,
    )
    t = 0.0
    workload = []
    for i, (gap, rel_deadline) in enumerate(requests):
        t += gap
        image = np.full((1, 2, 2), float(i % 5))
        deadline = t + rel_deadline if rel_deadline is not None else None
        workload.append((t, image, deadline))
    responses = server.run(workload)
    return server, bus, workload, responses


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(request_st, min_size=1, max_size=40), cfg=config_st)
def test_conservation_and_deadline_honesty(requests, cfg):
    server, bus, workload, responses = _run(requests, cfg)

    # Conservation: exactly one terminal response per request.
    ids = Counter(r.req_id for r in responses)
    assert sorted(ids) == list(range(len(requests)))
    assert all(count == 1 for count in ids.values())

    # Deadline honesty: ok responses meet their deadline; a missed
    # deadline is always a recorded timeout, never silence or a late ok.
    deadlines = {i: w[2] for i, w in enumerate(workload)}
    for r in responses:
        d = deadlines[r.req_id]
        if r.status == "ok" and d is not None:
            assert r.done_s <= d
        if r.status == "timeout":
            assert d is not None
        assert r.done_s >= r.arrival_s  # virtual time never rewinds

    # Reconciliation, on the server's books and on the bus.
    s = server.stats
    assert s.reconciles()
    counters = Counter()
    for e in bus.sink.events:
        if e.kind == "counter":
            counters[e.name] += int(e.value)
    assert counters["serve.submitted"] == s.submitted == len(requests)
    assert (
        counters["serve.submitted"]
        == counters["serve.served"]
        + counters["serve.rejected"]
        + counters["serve.timeout"]
    )


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(request_st, min_size=1, max_size=40), cfg=config_st)
def test_batch_bound_and_replica_exclusivity(requests, cfg):
    server, bus, _, responses = _run(requests, cfg)

    # Batch sizes never exceed the configured bound.
    batch_sizes = [
        e.value for e in bus.sink.events if e.name == "serve.batch_size"
    ]
    assert all(1 <= b <= cfg["max_batch_size"] for b in batch_sizes)

    # Per-replica service windows never overlap (one batch at a time).
    spans = defaultdict(list)
    for e in bus.sink.events:
        if e.kind == "span" and e.name == "serve.infer":
            spans[e.attrs["replica"]].append((e.t_s, e.t_s + e.value))
    for windows in spans.values():
        windows.sort()
        for (_, end_a), (start_b, _) in zip(windows, windows[1:]):
            assert start_b >= end_a - 1e-12

    # Features delivered are the stub's exact rows (row-independence),
    # even through the cache.
    for r in responses:
        if r.status == "ok":
            assert r.features.shape == (4,)


@settings(max_examples=25, deadline=None)
@given(requests=st.lists(request_st, min_size=1, max_size=25), cfg=config_st)
def test_schedules_replay_bit_identically(requests, cfg):
    def fingerprint():
        server, _, _, responses = _run(requests, cfg)
        return [
            (r.req_id, r.status, r.done_s, r.replica_id, r.batch_id, r.cache_hit)
            for r in responses
        ]

    assert fingerprint() == fingerprint()


# -- the indexes against brute force ------------------------------------------


class DequeFIFO:
    """The bounded deque FIFO the admission-less server ran on before
    the one queue, deadline methods as they were before the index:
    label-blind, standalone, sharing no code with ``src``."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._items = deque()

    def __len__(self):
        return len(self._items)

    @property
    def full(self):
        return len(self._items) >= self.capacity

    def push(self, request):
        if self.full:
            return False
        self._items.append(request)
        return True

    def push_front(self, request):
        self._items.appendleft(request)

    def pop(self):
        return self._items.popleft()

    def peek(self):
        return self._items[0]

    def min_deadline_s(self):
        deadlines = [r.deadline_s for r in self._items if r.deadline_s is not None]
        return min(deadlines) if deadlines else None

    def remove_expired(self, now_s):
        expired = [
            r for r in self._items if r.deadline_s is not None and r.deadline_s <= now_s
        ]
        if expired:
            dead = {r.req_id for r in expired}
            self._items = deque(r for r in self._items if r.req_id not in dead)
        return expired


class ScanningFair(FairRequestQueue):
    """``FairRequestQueue``'s deadline methods as they were before the index."""

    def min_deadline_s(self):
        deadlines = [
            r.deadline_s
            for lane in self._lanes.values()
            for _, r in lane.items
            if r.deadline_s is not None
        ]
        return min(deadlines) if deadlines else None

    def remove_expired(self, now_s):
        expired = []
        for lane in self._lanes.values():
            dead = [
                (t, r)
                for t, r in lane.items
                if r.deadline_s is not None and r.deadline_s <= now_s
            ]
            if dead:
                gone = {r.req_id for _, r in dead}
                lane.items = deque(
                    (t, r) for t, r in lane.items if r.req_id not in gone
                )
                expired.extend(r for _, r in dead)
                self._n -= len(dead)
        return sorted(expired, key=lambda r: r.req_id)


TENANTS = [TenantSpec("a", weight=2.0), TenantSpec("b", priority=1), TenantSpec("c")]

#: Quarter-second grid: deadlines tie with each other and with ``now``.
_grid = st.integers(0, 16).map(lambda k: k * 0.25)

queue_op_st = st.one_of(
    st.tuples(st.just("push"), st.one_of(st.none(), _grid), st.integers(0, 2)),
    st.tuples(st.just("push_front"), st.integers(0, 7)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("expire"), st.integers(0, 4).map(lambda k: k * 0.25)),
)


QUEUE_PAIRS = pytest.mark.parametrize(
    "new_cls, ref_cls, args",
    [(FairRequestQueue, DequeFIFO, (6,)), (FairRequestQueue, ScanningFair, (6, TENANTS))],
    ids=["fifo", "fair"],
)


@QUEUE_PAIRS
@settings(max_examples=150, deadline=None)
@given(ops=st.lists(queue_op_st, min_size=1, max_size=60))
def test_deadline_index_equals_scanning_the_queue(new_cls, ref_cls, args, ops):
    queue, ref = new_cls(*args), ref_cls(*args)
    image = np.zeros((1, 2, 2))
    now, next_id, popped = 0.0, 0, []
    for op in ops:
        if op[0] == "push":
            req = Request(
                next_id, image, now, deadline_s=op[1], tenant=TENANTS[op[2]].name
            )
            next_id += 1
            assert queue.push(req) == ref.push(req)
        elif op[0] == "push_front" and popped:
            # A faulted batch comes back: same object, same deadline.
            req = popped.pop(op[1] % len(popped))
            queue.push_front(req)
            ref.push_front(req)
        elif op[0] == "pop" and len(ref):
            req = queue.pop()
            assert req is ref.pop()
            popped.append(req)
        elif op[0] == "expire":
            now += op[1]
            got, want = queue.remove_expired(now), ref.remove_expired(now)
            assert [r.req_id for r in got] == [r.req_id for r in want]
        assert len(queue) == len(ref) and queue.full == ref.full
        assert queue.min_deadline_s() == ref.min_deadline_s()
        if len(ref):
            assert queue.peek() is ref.peek()


@QUEUE_PAIRS
def test_stale_index_entries_are_compacted_and_answers_stay_exact(
    new_cls, ref_cls, args
):
    # An early deadline parked at the top of the heap (pushed back to
    # the head after every pop) keeps lazy deletion from ever reaching
    # the entries of the 500 requests that flow through behind it.
    queue, ref = new_cls(*args), ref_cls(*args)
    image = np.zeros((1, 2, 2))
    parked = Request(0, image, 0.0, deadline_s=1.0, tenant="a")
    for q in (queue, ref):
        q.push(parked)
    for i in range(1, 501):
        req = Request(i, image, 0.0, deadline_s=2.0 + i, tenant="a")
        for q in (queue, ref):
            q.push(req)
            assert q.pop() is parked and q.pop() is req
            q.push_front(parked)
        assert queue.min_deadline_s() == ref.min_deadline_s() == 1.0
    assert len(queue._deadlines._heap) < 100
    assert queue.remove_expired(0.5) == ref.remove_expired(0.5) == []
    assert queue.remove_expired(1.0) == ref.remove_expired(1.0) == [parked]
    assert len(queue) == 0 and queue.min_deadline_s() is None


class TableService:
    """Service time looked up by batch size: arbitrary finish instants."""

    def __init__(self, table):
        self.table = table

    def estimate(self, batch_size):
        return self.table[batch_size - 1]


@settings(max_examples=60, deadline=None)
@given(
    arrivals=st.lists(st.integers(0, 12), min_size=1, max_size=40),
    tables=st.lists(
        st.lists(st.integers(1, 4), min_size=3, max_size=3), min_size=1, max_size=4
    ),
    faults=st.lists(
        st.tuples(st.sampled_from(["raise", "stall"]), st.integers(0, 6)), max_size=3
    ),
)
def test_inflight_batches_deliver_in_finish_then_batch_id_order(
    arrivals, tables, faults
):
    # Everything sits on an eighth-second grid, so batches on different
    # replicas finish at exactly the same instant all the time.
    server = InferenceServer(
        StubEncoder(),
        services=[TableService([k * 0.125 for k in t]) for t in tables],
        max_batch_size=3,
        queue_capacity=64,
        stall_timeout_s=0.25,
        fault_plan=ReplicaFaultPlan(
            [ReplicaFaultSpec(0, kind, dispatch_index=i) for kind, i in faults]
        ),
    )
    image = np.zeros((1, 2, 2))
    server.run([(k * 0.125, image) for k in sorted(arrivals)])
    assert server.stats.reconciles()
    # Responses are appended as batches are delivered; a requeued
    # request reports the batch that finally carried it.
    delivered = [
        (r.done_s, r.batch_id) for r in server.responses if r.batch_id is not None
    ]
    order = list(dict.fromkeys(delivered))
    assert order == sorted(order)


def test_equal_finish_instants_deliver_by_batch_id():
    server = InferenceServer(
        StubEncoder(),
        services=[FixedServiceModel(8.0)] * 3,
        max_batch_size=2,
        queue_capacity=16,
    )
    image = np.zeros((1, 2, 2))
    server.run([(0.0, image)] * 6)
    # Three batches of two, dispatched at t=0 to three equal replicas.
    assert [(r.done_s, r.batch_id) for r in server.responses] == [
        (0.25, 0), (0.25, 0), (0.25, 1), (0.25, 1), (0.25, 2), (0.25, 2)
    ]


class TestRequeuedDeadlineIsSweptExactlyOnce:
    """The lazy-deletion trap: a popped request leaves a stale entry in
    the deadline heap, and a requeue adds its twin beside it."""

    def test_deadline_passes_while_requeued_behind_a_higher_priority_lane(self):
        # "lo" is dispatched at t=0 and its replica stalls until 0.5;
        # requeued, it waits behind three "hi" requests (strict
        # priority, 0.15 s each) and its 0.7 s deadline passes in queue.
        specs = [TenantSpec("hi", priority=0), TenantSpec("lo", priority=1)]
        server = InferenceServer(
            StubEncoder(),
            services=[FixedServiceModel(1 / 0.15)],
            max_batch_size=1,
            stall_timeout_s=0.5,
            admission=AdmissionController(specs, capacity=8),
            fault_plan=ReplicaFaultPlan([ReplicaFaultSpec(0, "stall")]),
        )
        image = np.zeros((1, 2, 2))
        responses = server.run(
            [
                (0.0, image, 0.7, "lo"),
                (0.1, image, None, "hi"),
                (0.2, image, None, "hi"),
                (0.3, image, None, "hi"),
            ]
        )
        lo = responses[0]
        assert (lo.status, lo.done_s, lo.batch_id) == ("timeout", 0.7, None)
        assert [r.status for r in responses[1:]] == ["ok"] * 3
        s = server.stats
        assert (s.requeued, s.timed_out, s.served) == (1, 1, 3)
        assert s.reconciles() and len(server.responses) == 4
        assert server.queue.min_deadline_s() is None

    def test_deadline_passes_while_stalled_in_flight(self):
        # Request 0's deadline (0.3) falls inside its stall window: while
        # it is in flight its stale heap entry must not wake the loop
        # (request 1 is queued, nothing could progress at 0.3), and at
        # 0.5 the requeue is swept once, before the batch re-forms.
        server = InferenceServer(
            StubEncoder(),
            services=[FixedServiceModel(10.0)],
            max_batch_size=1,
            stall_timeout_s=0.5,
            fault_plan=ReplicaFaultPlan([ReplicaFaultSpec(0, "stall")]),
        )
        image = np.zeros((1, 2, 2))
        responses = server.run([(0.0, image, 0.3), (0.1, image, 2.0)])
        assert [(r.status, r.done_s) for r in responses] == [
            ("timeout", 0.5),
            ("ok", 0.6),
        ]
        assert server.stats.reconciles() and server.stats.requeued == 1
