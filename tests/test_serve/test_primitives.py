"""Unit tests: clock, queue, batcher, and the LRU feature cache."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.serve.admission import FairRequestQueue
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import LRUFeatureCache, image_digest
from repro.serve.clock import VirtualClock
from repro.serve.queue import Request, Response


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        c = VirtualClock()
        assert c.now() == 0.0
        assert c.advance(1.5) == 1.5
        assert c.advance_to(4.0) == 4.0
        assert c.now() == 4.0

    def test_advance_to_same_instant_is_noop(self):
        c = VirtualClock(2.0)
        assert c.advance_to(2.0) == 2.0

    def test_monotonicity_enforced(self):
        c = VirtualClock(3.0)
        with pytest.raises(ValueError, match="rewind"):
            c.advance_to(1.0)
        with pytest.raises(ValueError, match="negative"):
            c.advance(-0.1)
        with pytest.raises(ValueError):
            VirtualClock(-1.0)


def _req(req_id, arrival=0.0, deadline=None):
    return Request(
        req_id=req_id,
        image=np.zeros((1, 2, 2)),
        arrival_s=arrival,
        deadline_s=deadline,
    )


class TestRequestQueue:
    """The one queue without specs: a bounded FIFO."""

    def test_fifo_and_bound(self):
        q = FairRequestQueue(capacity=2)
        assert q.push(_req(0)) and q.push(_req(1))
        assert q.full
        assert not q.push(_req(2))  # backpressure
        assert q.pop().req_id == 0
        assert q.push(_req(3))
        assert [q.pop().req_id, q.pop().req_id] == [1, 3]

    def test_push_front_bypasses_bound(self):
        q = FairRequestQueue(capacity=1)
        q.push(_req(0))
        q.push_front(_req(1))  # fault requeue must never drop
        assert len(q) == 2
        assert q.pop().req_id == 1

    def test_remove_expired_is_deadline_inclusive(self):
        q = FairRequestQueue(capacity=8)
        q.push(_req(0, deadline=1.0))
        q.push(_req(1, deadline=5.0))
        q.push(_req(2))  # no deadline: never expires
        assert q.min_deadline_s() == 1.0
        gone = q.remove_expired(1.0)
        assert [r.req_id for r in gone] == [0]
        assert len(q) == 2 and q.min_deadline_s() == 5.0
        assert q.remove_expired(100.0)[0].req_id == 1
        assert len(q) == 1  # the deadline-less request survives

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FairRequestQueue(0)


class TestMicroBatcher:
    def test_closes_on_size(self):
        b = MicroBatcher(max_batch_size=2, max_wait_s=10.0)
        q = FairRequestQueue(8)
        q.push(_req(0, arrival=0.0))
        assert b.ready_at(q, now_s=0.0) == 10.0  # age trigger, far out
        q.push(_req(1, arrival=1.0))
        assert b.ready_at(q, now_s=1.0) == 1.0  # size trigger: now

    def test_closes_on_age_of_oldest(self):
        b = MicroBatcher(max_batch_size=100, max_wait_s=0.5)
        q = FairRequestQueue(8)
        q.push(_req(0, arrival=2.0))
        q.push(_req(1, arrival=2.4))
        assert b.ready_at(q, now_s=2.4) == 2.5  # oldest + max_wait
        assert b.ready_at(q, now_s=3.0) == 3.0  # already overdue: now

    def test_empty_queue_never_ready(self):
        assert MicroBatcher().ready_at(FairRequestQueue(4), 0.0) is None

    def test_take_caps_at_max_batch_size(self):
        b = MicroBatcher(max_batch_size=3)
        q = FairRequestQueue(8)
        for i in range(5):
            q.push(_req(i))
        assert [r.req_id for r in b.take(q)] == [0, 1, 2]
        assert [r.req_id for r in b.take(q)] == [3, 4]

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ValueError, match="max_wait_s"):
            MicroBatcher(max_wait_s=-1.0)
        with pytest.raises(ValueError, match="max_wait_s"):
            MicroBatcher(max_wait_s=float("inf"))


class TestResponse:
    def test_status_and_reason_validated(self):
        with pytest.raises(ValueError, match="status"):
            Response(req_id=0, status="lost", arrival_s=0.0, done_s=1.0)
        with pytest.raises(ValueError, match="reason"):
            Response(req_id=0, status="rejected", arrival_s=0.0, done_s=1.0)

    def test_latency(self):
        r = Response(req_id=0, status="ok", arrival_s=1.0, done_s=3.5)
        assert r.latency_s == 2.5


class TestFeatureCache:
    def test_digest_distinguishes_content_shape_dtype(self):
        a = np.arange(8.0).reshape(2, 4)
        assert image_digest(a) == image_digest(a.copy())
        assert image_digest(a) != image_digest(a.reshape(4, 2))
        assert image_digest(a) != image_digest(a.astype(np.float32))
        b = a.copy()
        b[0, 0] += 1
        assert image_digest(a) != image_digest(b)

    def test_digest_of_noncontiguous_view(self):
        a = np.arange(16.0).reshape(4, 4)
        view = a[:, ::2]
        assert image_digest(view) == image_digest(np.ascontiguousarray(view))

    def test_digest_values_are_pinned(self):
        # Literals from commit 06e820a (str(dtype) + tobytes() copy): a
        # cache persisted or shared across versions must keep hitting.
        a = np.arange(3 * 4 * 4, dtype=np.float64).reshape(3, 4, 4) / 7.0
        assert image_digest(a) == (
            "1ea37153393b8824e6bceba5dd049724e9bf9398ade5f2eb265784dedb544e44"
        )
        assert image_digest(a.astype(np.float32)) == (
            "5ed2776bb2a15495f909adf8a65de781e402af82f21d252fd677c3db9e91da0e"
        )
        assert image_digest(a[:, ::2, 1:]) == (  # non-contiguous view
            "8a3c5b0a4e2c043cec48fdd3f59335f1ad63c8ea58323801fbadc036959f965a"
        )
        assert image_digest(a.astype(">f8")) == (  # big-endian copy
            "0d1467094d2ba42a1c166119b1d45c942fd1a0fdd78bd807dacff019414ea1ed"
        )
        frozen = a.copy()
        frozen.setflags(write=False)  # hashed in place, never written
        assert image_digest(frozen) == image_digest(a)

    def test_digest_leaves_nothing_attached_to_the_image(self):
        # Exporting an array's buffer makes NumPy cache ~100 B of export
        # info on that array object for its lifetime; requests hold their
        # image views for a whole episode, so hashing must not do that.
        pool = np.zeros((8, 1, 2, 2))
        views = [pool[i % 8] for i in range(400)]
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for view in views:
                image_digest(view)
            grew = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert grew < 400 * 16

    def test_hit_returns_copy_and_counts(self):
        c = LRUFeatureCache(capacity=4)
        row = np.array([1.0, 2.0])
        c.put("k", row)
        got = c.get("k")
        np.testing.assert_array_equal(got, row)
        got[0] = 99.0
        np.testing.assert_array_equal(c.get("k"), row)  # stored row untouched
        assert c.get("missing") is None
        assert (c.hits, c.misses) == (2, 1)
        assert c.hit_rate == pytest.approx(2 / 3)

    def test_lru_eviction_order_respects_use(self):
        c = LRUFeatureCache(capacity=2)
        c.put("a", np.array([1.0]))
        c.put("b", np.array([2.0]))
        assert c.get("a") is not None  # refresh 'a': now 'b' is LRU
        c.put("c", np.array([3.0]))
        assert "b" not in c and "a" in c and "c" in c
        assert len(c) == 2

    def test_put_refresh_does_not_grow(self):
        c = LRUFeatureCache(capacity=2)
        c.put("a", np.array([1.0]))
        c.put("a", np.array([1.0]))
        assert len(c) == 1
        with pytest.raises(ValueError, match="capacity"):
            LRUFeatureCache(0)
