"""Unit tests for tenant-aware admission: token buckets, SFQ ordering,
priorities, and the rate-limited reject path through the server."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    AdmissionController,
    FairRequestQueue,
    FixedServiceModel,
    InferenceServer,
    Request,
    TenantSpec,
    TokenBucket,
    VirtualClock,
)
from repro.telemetry import RecordingSink, TelemetryBus

from tests.test_serve.conftest import StubEncoder, stub_images


def _req(req_id, tenant="", arrival=0.0, deadline=None):
    return Request(
        req_id=req_id,
        image=np.zeros((1, 2, 2)),
        arrival_s=arrival,
        deadline_s=deadline,
        tenant=tenant,
    )


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            TenantSpec("")
        with pytest.raises(ValueError, match="weight"):
            TenantSpec("a", weight=0.0)
        with pytest.raises(ValueError, match="priority"):
            TenantSpec("a", priority=-1)
        with pytest.raises(ValueError, match="rate_limit"):
            TenantSpec("a", rate_limit=0.0)
        with pytest.raises(ValueError, match="burst"):
            TenantSpec("a", rate_limit=1.0, burst=0.5)


class TestTokenBucket:
    def test_burst_then_dry_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0)
        assert [bucket.try_take(0.0) for _ in range(4)] == [True] * 3 + [False]
        # 1 second at 2 tokens/s refills two.
        assert bucket.try_take(1.0) and bucket.try_take(1.0)
        assert not bucket.try_take(1.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.available(100.0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0.0)


class TestFairRequestQueue:
    def test_duck_types_the_fifo_for_one_tenant(self):
        q = FairRequestQueue(capacity=3)
        assert q.push(_req(0)) and q.push(_req(1)) and q.push(_req(2))
        assert q.full and not q.push(_req(3))
        assert len(q) == 3
        assert q.peek().req_id == 0
        assert [q.pop().req_id for _ in range(3)] == [0, 1, 2]

    def test_weighted_interleave_two_to_one(self):
        # Backlogged tenants drain in proportion to their weights: tags
        # grow by 1/w per request, so weight 2 pops twice per weight-1 pop.
        q = FairRequestQueue(
            capacity=9, specs=[TenantSpec("heavy", weight=2.0), TenantSpec("light")]
        )
        rid = 0
        for _ in range(3):
            for tenant in ("heavy", "heavy", "light"):
                assert q.push(_req(rid, tenant))
                rid += 1
        order = [q.pop().tenant for _ in range(9)]
        # In every window of 3 pops, heavy appears twice.
        for i in range(0, 9, 3):
            assert order[i : i + 3].count("heavy") == 2

    def test_strict_priority_across_classes(self):
        q = FairRequestQueue(
            capacity=8,
            specs=[
                TenantSpec("batch", weight=100.0, priority=1),
                TenantSpec("live", weight=0.1, priority=0),
            ],
        )
        for i in range(3):
            q.push(_req(i, "batch"))
        for i in range(3, 6):
            q.push(_req(i, "live"))
        # Priority 0 drains fully first, whatever the weights say.
        assert [q.pop().tenant for _ in range(6)] == ["live"] * 3 + ["batch"] * 3

    def test_push_front_restores_head_position(self):
        q = FairRequestQueue(capacity=4, specs=[TenantSpec("a"), TenantSpec("b")])
        for i, tenant in enumerate(["a", "b", "a"]):
            q.push(_req(i, tenant))
        victim = q.pop()
        assert victim.req_id == 0
        q.push_front(victim)
        assert q.peek().req_id == 0  # back at the front of its lane

    def test_push_front_is_bound_exempt(self):
        q = FairRequestQueue(capacity=1)
        q.push(_req(0))
        q.push_front(_req(1))
        assert len(q) == 2

    def test_remove_expired_spans_all_lanes_in_req_id_order(self):
        q = FairRequestQueue(capacity=8, specs=[TenantSpec("a"), TenantSpec("b")])
        q.push(_req(0, "a", deadline=1.0))
        q.push(_req(1, "b", deadline=0.5))
        q.push(_req(2, "a"))
        expired = q.remove_expired(2.0)
        assert [r.req_id for r in expired] == [0, 1]
        assert len(q) == 1 and q.min_deadline_s() is None

    def test_depth_by_tenant(self):
        q = FairRequestQueue(capacity=8)
        q.push(_req(0, "a"))
        q.push(_req(1, "a"))
        q.push(_req(2, "b"))
        assert q.depth_by_tenant() == {"a": 2, "b": 1}

    def test_unknown_tenant_gets_default_lane(self):
        q = FairRequestQueue(capacity=4)
        assert q.push(_req(0, "surprise"))
        spec = q.spec_for("surprise")
        assert (spec.weight, spec.priority, spec.rate_limit) == (1.0, 0, None)

    def test_duplicate_specs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FairRequestQueue(capacity=4, specs=[TenantSpec("a"), TenantSpec("a")])


class TestAdmissionController:
    def test_rate_limit_rejects_beyond_bucket(self):
        ctrl = AdmissionController(
            [TenantSpec("free", rate_limit=1.0, burst=2)], capacity=8
        )
        assert ctrl.admit_reason("free", 0.0) is None
        assert ctrl.admit_reason("free", 0.0) is None
        assert ctrl.admit_reason("free", 0.0) == "rate_limited"
        # The bucket refills on virtual time.
        assert ctrl.admit_reason("free", 1.0) is None

    def test_unlimited_tenants_always_admit(self):
        ctrl = AdmissionController([TenantSpec("vip")], capacity=8)
        assert all(ctrl.admit_reason("vip", 0.0) is None for _ in range(100))
        assert ctrl.admit_reason("never-seen", 0.0) is None


class TestServerIntegration:
    def _server(self, specs, **kw):
        clock = VirtualClock()
        bus = TelemetryBus(RecordingSink(), clock=clock.now)
        server = InferenceServer(
            StubEncoder(),
            services=[FixedServiceModel(100.0)],
            clock=clock,
            telemetry=bus,
            admission=AdmissionController(specs, capacity=8),
            **kw,
        )
        return server, bus

    def test_rate_limited_submit_is_rejected_at_the_door(self):
        server, bus = self._server([TenantSpec("free", rate_limit=5.0, burst=1)])
        imgs = stub_images(2)
        responses = server.run(
            [(0.0, imgs[0], None, "free"), (0.0, imgs[1], None, "free")]
        )
        assert [r.status for r in responses] == ["ok", "rejected"]
        assert responses[1].reason == "rate_limited"
        assert responses[1].tenant == "free"
        s = server.stats
        assert s.rejected_rate_limited == 1
        assert s.reconciles() and s.tenant("free").reconciles()
        rejected = [
            e
            for e in bus.sink.events
            if e.kind == "counter" and e.name == "serve.rejected"
        ]
        assert rejected[0].attrs == {"reason": "rate_limited", "tenant": "free"}

    def test_admission_queue_capacity_wins_over_queue_capacity(self):
        server, _ = self._server([TenantSpec("a")], queue_capacity=999)
        assert server.queue.capacity == 8
        assert server.queue is server.admission.queue

    def test_single_tenant_path_has_no_tenant_attrs(self):
        # Anonymous traffic keeps the PR 5 event shapes byte-stable.
        clock = VirtualClock()
        bus = TelemetryBus(RecordingSink(), clock=clock.now)
        server = InferenceServer(
            StubEncoder(),
            services=[FixedServiceModel(100.0)],
            clock=clock,
            telemetry=bus,
        )
        server.run([(0.0, stub_images(1)[0])])
        for e in bus.sink.events:
            assert "tenant" not in e.attrs
        assert server.stats.tenant("").reconciles()
