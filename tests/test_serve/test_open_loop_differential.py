"""Differential suite: the multi-tenant machinery must be a no-op when
it isn't exercised.

Four pins, all byte-exact:

- ``run_traffic`` on generated events == ``run`` on the equivalent
  tuples (the open-loop entry point adds no behaviour of its own);
- a single-tenant ``AdmissionController`` (one default spec, no rate
  limit) produces the *identical schedule* to the plain bounded FIFO —
  same verdicts, same timestamps, same batches, same feature bytes;
- tenant labels are bookkeeping only: the same workload with and
  without a tenant name schedules identically;
- that holds for *any mix* of labels on a server built without an
  ``AdmissionController``: its queue has one shared lane, so two- and
  three-label traffic — overload rejections, fault requeues and queued
  expiries included — is served exactly as the same arrivals unlabelled
  (a queue that opened a lane per label would interleave them).

Fixed-rate open-loop traffic, autoscaling disabled, one replica — the
regime where PR 5's single-tenant server is the specification.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    AdmissionController,
    FixedServiceModel,
    InferenceServer,
    RateProfile,
    ReplicaFaultPlan,
    ReplicaFaultSpec,
    TenantSpec,
    TenantTraffic,
    VirtualClock,
    generate_workload,
)

from tests.test_serve.conftest import StubEncoder


def _events(name="solo", rate=120.0, deadline_s=0.2, horizon_s=2.0, seed=13):
    traffic = TenantTraffic(
        TenantSpec(name),
        RateProfile(base_rate_ips=rate),
        deadline_s=deadline_s,
        working_set=4,
        image_shape=(1, 2, 2),
    )
    return generate_workload([traffic], horizon_s=horizon_s, seed=seed)


def _server(admission=None, capacity=16, max_batch_size=4, cache_capacity=8):
    return InferenceServer(
        StubEncoder(),
        services=[FixedServiceModel(150.0)],
        max_batch_size=max_batch_size,
        max_wait_s=0.005,
        queue_capacity=capacity,
        cache_capacity=cache_capacity,
        clock=VirtualClock(),
        admission=admission,
    )


def _fingerprint(responses, with_tenant=True):
    return [
        (
            r.req_id,
            r.status,
            r.arrival_s,
            r.done_s,
            r.reason,
            r.replica_id,
            r.batch_id,
            r.cache_hit,
            r.tenant if with_tenant else None,
            r.features.tobytes() if r.features is not None else None,
        )
        for r in responses
    ]


class TestOpenLoopDifferential:
    def test_run_traffic_equals_run_on_equivalent_tuples(self):
        events = _events()
        resp_traffic = _server().run_traffic(events)
        resp_run = _server().run(
            [(e.t_s, e.image, e.deadline_s, e.tenant) for e in events]
        )
        assert _fingerprint(resp_traffic) == _fingerprint(resp_run)

    def test_single_tenant_admission_is_byte_identical_to_plain_fifo(self):
        # A one-spec FairRequestQueue must order exactly like the FIFO:
        # same capacity, no rate limit, so the only difference is the
        # queue implementation — which must not be observable.
        events = _events()
        plain = _server(capacity=16)
        fair = _server(
            admission=AdmissionController([TenantSpec("solo")], capacity=16)
        )
        resp_plain = plain.run_traffic(events)
        resp_fair = fair.run_traffic(events)
        assert _fingerprint(resp_plain) == _fingerprint(resp_fair)
        assert plain.stats.to_json() == fair.stats.to_json()

    def test_tenant_label_is_pure_bookkeeping(self):
        # The same arrivals served anonymously (the PR 5 path: 3-tuples,
        # no admission) schedule identically to the labelled run —
        # tenant changes responses' bookkeeping fields only.
        events = _events()
        resp_labelled = _server().run_traffic(events)
        resp_anon = _server().run(
            [(e.t_s, e.image, e.deadline_s) for e in events]
        )
        assert all(r.tenant == "solo" for r in resp_labelled)
        assert all(r.tenant == "" for r in resp_anon)
        assert _fingerprint(resp_labelled, with_tenant=False) == _fingerprint(
            resp_anon, with_tenant=False
        )

    def test_overload_rejects_identically_at_the_door(self):
        # Saturate a tiny queue: backpressure verdicts (which request is
        # rejected, and when) must match between FIFO and single-tenant
        # admission — rejection order is part of the schedule.
        events = _events(rate=400.0, deadline_s=None, horizon_s=1.0)
        plain = _server(capacity=4)
        fair = _server(
            admission=AdmissionController([TenantSpec("solo")], capacity=4)
        )
        fp_plain = _fingerprint(plain.run_traffic(events))
        fp_fair = _fingerprint(fair.run_traffic(events))
        assert fp_plain == fp_fair
        assert plain.stats.rejected_queue_full > 0


def _relabel(events, labels):
    """The same arrivals (times, images, deadlines) with ``labels`` dealt
    round the stream in uneven runs, and unlabelled."""
    runs = [label for i, label in enumerate(labels) for _ in range(i + 2)]
    tuples = [(e.t_s, e.image, e.deadline_s) for e in events]
    labelled = [(*t, runs[i % len(runs)]) for i, t in enumerate(tuples)]
    assert {t[3] for t in labelled} == set(labels)
    return labelled, tuples


LABEL_MIXES = pytest.mark.parametrize(
    "labels", [("a", "b"), ("a", "b", "c")], ids=["two-labels", "three-labels"]
)

#: No cache and batches smaller than the backlog: the *order* requests
#: leave the queue decides every batch, so a lane per label would show.
ORDER_MATTERS = dict(max_batch_size=2, cache_capacity=0)


class TestLabelsWithoutAdmissionAreOneLane:
    def test_a_burst_is_served_in_arrival_order_whatever_its_labels(self):
        # Per-label lanes would serve a,a,a,a,b,b as 0,4,1,5,2,3.
        server = InferenceServer(
            StubEncoder(), services=[FixedServiceModel(100.0)], max_batch_size=1
        )
        image = np.zeros((1, 2, 2))
        server.run([(0.0, image, None, label) for label in "aaaabb"])
        assert [r.req_id for r in server.responses] == [0, 1, 2, 3, 4, 5]
        assert [r.tenant for r in server.responses] == list("aaaabb")
        assert server.queue.spec_for("a") is server.queue.spec_for("b")

    @LABEL_MIXES
    def test_mixed_labels_schedule_like_the_same_arrivals_unlabelled(self, labels):
        labelled, anon = _relabel(_events(rate=160.0), labels)
        mixed, plain = _server(**ORDER_MATTERS), _server(**ORDER_MATTERS)
        fp_mixed = _fingerprint(mixed.run(labelled), with_tenant=False)
        assert fp_mixed == _fingerprint(plain.run(anon), with_tenant=False)
        assert mixed.stats.reconciles()
        assert sorted(mixed.stats.tenants) == sorted(labels)

    @LABEL_MIXES
    def test_overload_rejects_the_same_requests_whatever_their_labels(self, labels):
        events = _events(rate=400.0, deadline_s=None, horizon_s=1.0)
        labelled, anon = _relabel(events, labels)
        mixed, plain = (_server(capacity=4, **ORDER_MATTERS) for _ in range(2))
        fp_mixed = _fingerprint(mixed.run(labelled), with_tenant=False)
        assert fp_mixed == _fingerprint(plain.run(anon), with_tenant=False)
        assert mixed.stats.rejected_queue_full == plain.stats.rejected_queue_full > 0
        # The tenant slices split the same rejections between the labels.
        by_label = [mixed.stats.tenant(name).rejected for name in labels]
        assert sum(by_label) == plain.stats.rejected_queue_full
        assert mixed.stats.reconciles()

    @LABEL_MIXES
    def test_requeue_then_expire_is_label_blind(self, labels):
        # A burst of ten: [0, 1, 2] go out at t=0, the replica stalls and
        # they come back to the head at 0.5 — the instant every odd id's
        # deadline falls. One sweep then times out a requeued request and
        # never-dispatched ones together, in queue order.
        def server():
            return InferenceServer(
                StubEncoder(),
                services=[FixedServiceModel(20.0)],
                max_batch_size=3,
                queue_capacity=16,
                stall_timeout_s=0.5,
                fault_plan=ReplicaFaultPlan([ReplicaFaultSpec(0, "stall")]),
            )

        image = np.zeros((1, 2, 2))
        anon = [(0.0, image, 0.5 if i % 2 else 2.0) for i in range(10)]
        runs = [label for i, label in enumerate(labels) for _ in range(i + 2)]
        labelled = [(*t, runs[i % len(runs)]) for i, t in enumerate(anon)]
        mixed, plain = server(), server()
        fp_mixed = _fingerprint(mixed.run(labelled), with_tenant=False)
        assert fp_mixed == _fingerprint(plain.run(anon), with_tenant=False)
        # Verdict *order* too: responses are appended as they are booked.
        booked = [(r.req_id, r.status, r.batch_id) for r in mixed.responses]
        assert booked == [(r.req_id, r.status, r.batch_id) for r in plain.responses]
        assert booked[:5] == [(i, "timeout", None) for i in (1, 3, 5, 7, 9)]
        s = mixed.stats
        assert (s.requeued, s.timed_out, s.served) == (3, 5, 5) and s.reconciles()
