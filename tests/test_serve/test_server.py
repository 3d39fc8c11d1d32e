"""Server integration: differential bit-identity, backpressure, timeouts,
caching, telemetry, and schedule determinism."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.eval.features import extract_features
from repro.models.mae import MaskedAutoencoder
from repro.serve import (
    FixedServiceModel,
    InferenceServer,
    VirtualClock,
    latency_stats,
)
from repro.telemetry import RecordingSink, TelemetryBus

from tests.test_serve.conftest import stub_images


def _server(model, **kw):
    clock = VirtualClock()
    bus = TelemetryBus(RecordingSink(), clock=clock.now)
    kw.setdefault("services", [FixedServiceModel(100.0)])
    return InferenceServer(model, clock=clock, telemetry=bus, **kw), bus


def test_server_owns_no_thread_pool():
    """Encoder threading is ``OPENBLAS_NUM_THREADS``'s job: the server
    takes no thread count and holds nothing that needs closing."""
    assert "intra_op_threads" not in inspect.signature(
        InferenceServer.__init__
    ).parameters
    assert not hasattr(InferenceServer, "close")


class TestDifferentialBitIdentity:
    """Serving features == offline ``extract_features``, bit for bit,
    whatever the batching schedule and with the cache on or off."""

    @pytest.fixture(scope="class")
    def mae(self):
        from repro.core.config import MAEConfig, ViTConfig

        cfg = MAEConfig(
            encoder=ViTConfig(
                name="t", width=16, depth=2, mlp=32, heads=4, patch=8, img_size=16
            ),
            dec_width=16,
            dec_depth=1,
            dec_heads=4,
            mask_ratio=0.5,
        )
        return MaskedAutoencoder(cfg, rng=np.random.default_rng(0))

    @pytest.fixture(scope="class")
    def images(self):
        return np.random.default_rng(1).standard_normal((17, 3, 16, 16))

    @pytest.fixture(scope="class")
    def reference(self, mae, images):
        return extract_features(mae, images, batch_size=64)

    @pytest.mark.parametrize(
        "max_batch,max_wait,n_replicas,cache",
        [
            (1, 0.0, 1, 0),      # singleton batches
            (4, 0.005, 1, 0),    # mixed close-on-size / close-on-age
            (3, 0.002, 2, 0),    # two replicas interleaving
            (4, 0.005, 2, 64),   # cache on, repeats hit
        ],
    )
    def test_bit_identical_to_offline(
        self, mae, images, reference, max_batch, max_wait, n_replicas, cache
    ):
        server, _ = _server(
            mae,
            services=[FixedServiceModel(500.0)] * n_replicas,
            max_batch_size=max_batch,
            max_wait_s=max_wait,
            queue_capacity=64,
            cache_capacity=cache,
        )
        # Every image twice, so the cached run exercises real hits.
        workload = [(i * 0.001, images[i % 17]) for i in range(34)]
        responses = server.run(workload)
        assert len(responses) == 34
        assert all(r.status == "ok" for r in responses)
        for r in responses:
            np.testing.assert_array_equal(r.features, reference[r.req_id % 17])
        if cache:
            assert server.stats.cache_hits > 0

    def test_responses_identical_across_replica_counts(self, mae, images, reference):
        for n in (1, 3):
            server, _ = _server(
                mae,
                services=[FixedServiceModel(500.0)] * n,
                max_batch_size=5,
                max_wait_s=0.003,
                queue_capacity=64,
            )
            responses = server.run([(i * 0.0015, images[i]) for i in range(17)])
            for r in responses:
                np.testing.assert_array_equal(r.features, reference[r.req_id])


class TestBackpressure:
    def test_full_queue_rejects_at_submit(self, stub_model):
        server, _ = _server(
            stub_model,
            services=[FixedServiceModel(1.0)],  # 1 img/s: nothing drains
            max_batch_size=100,
            max_wait_s=10.0,
            queue_capacity=3,
        )
        imgs = stub_images(8)
        responses = server.run([(0.0, imgs[i]) for i in range(8)])
        rejected = [r for r in responses if r.status == "rejected"]
        assert len(rejected) == 5
        assert all(r.reason == "queue_full" for r in rejected)
        assert all(r.latency_s == 0.0 for r in rejected)  # verdict at the door
        assert server.stats.rejected_queue_full == 5
        assert server.stats.reconciles()

    def test_draining_queue_reopens_admission(self, stub_model):
        server, _ = _server(
            stub_model,
            services=[FixedServiceModel(1000.0)],
            max_batch_size=2,
            max_wait_s=0.0,
            queue_capacity=2,
        )
        imgs = stub_images(6)
        # Arrivals spaced past the service time: queue never saturates.
        responses = server.run([(i * 0.01, imgs[i]) for i in range(6)])
        assert all(r.status == "ok" for r in responses)


class TestDeadlines:
    def test_queued_requests_time_out_at_their_deadline(self, stub_model):
        server, _ = _server(
            stub_model,
            services=[FixedServiceModel(100.0)],
            max_batch_size=10,
            max_wait_s=1.0,  # batcher would wait until t=1.0
            queue_capacity=16,
        )
        imgs = stub_images(3)
        responses = server.run([(0.0, imgs[i], 0.5) for i in range(3)])
        assert all(r.status == "timeout" for r in responses)
        assert all(r.done_s == 0.5 for r in responses)  # verdict at the deadline
        assert server.stats.timed_out == 3
        assert server.stats.batches == 0  # never burned a replica window
        assert server.stats.reconciles()

    def test_inflight_completion_past_deadline_is_timeout(self, stub_model):
        server, _ = _server(
            stub_model,
            services=[FixedServiceModel(10.0)],  # 0.1 s/image
            max_batch_size=1,
            max_wait_s=0.0,
            queue_capacity=4,
        )
        [r] = server.run([(0.0, stub_images(1)[0], 0.05)])
        assert r.status == "timeout"
        assert r.done_s == pytest.approx(0.1)  # recorded at delivery
        assert server.stats.reconciles()

    def test_met_deadlines_are_served(self, stub_model):
        server, _ = _server(
            stub_model,
            services=[FixedServiceModel(1000.0)],
            max_batch_size=1,
            max_wait_s=0.0,
            queue_capacity=4,
        )
        [r] = server.run([(0.0, stub_images(1)[0], 0.5)])
        assert r.status == "ok" and r.done_s <= 0.5

    def test_past_deadline_rejected_at_submit(self, stub_model):
        server, _ = _server(stub_model)
        server.clock.advance(1.0)
        with pytest.raises(ValueError, match="past"):
            server.submit(stub_images(1)[0], deadline_s=0.5)


class TestCache:
    def test_repeat_traffic_hits_and_skips_compute(self, stub_model):
        server, _ = _server(
            stub_model,
            max_batch_size=4,
            max_wait_s=0.001,
            queue_capacity=64,
            cache_capacity=8,
        )
        img = stub_images(1)[0]
        # Spaced past the first completion, so every repeat finds the entry.
        responses = server.run([(i * 0.02, img) for i in range(10)])
        assert all(r.status == "ok" for r in responses)
        hits = [r for r in responses if r.cache_hit]
        assert len(hits) == 9  # everything after the first completion
        assert server.stats.cache_hits == 9
        assert server.stats.batched_images == 1  # encoder ran once
        # hit latency is instant; the miss paid queueing + service
        assert all(r.latency_s == 0.0 for r in hits)

    def test_cache_disabled_by_default(self, stub_model):
        server, _ = _server(stub_model)
        assert server.cache is None


class TestTelemetryIntegration:
    def test_counters_mirror_stats_and_reconcile(self, stub_model):
        server, bus = _server(
            stub_model,
            services=[FixedServiceModel(50.0)],
            max_batch_size=2,
            max_wait_s=0.01,
            queue_capacity=3,
            cache_capacity=4,
        )
        imgs = stub_images(4)
        workload = [(i * 0.001, imgs[i % 4], 0.5 + i * 0.001) for i in range(10)]
        server.run(workload)
        events = bus.sink.events
        by_name = {}
        for e in events:
            if e.kind == "counter":
                by_name[e.name] = by_name.get(e.name, 0) + int(e.value)
        s = server.stats
        assert by_name.get("serve.submitted", 0) == s.submitted == 10
        assert by_name.get("serve.served", 0) == s.served
        assert by_name.get("serve.rejected", 0) == s.rejected
        assert by_name.get("serve.timeout", 0) == s.timed_out
        assert by_name.get("serve.cache_hit", 0) == s.cache_hits
        assert s.reconciles()

    def test_spans_and_gauges_on_virtual_timeline(self, stub_model):
        server, bus = _server(
            stub_model,
            services=[FixedServiceModel(100.0)],
            max_batch_size=2,
            max_wait_s=0.005,
            queue_capacity=16,
        )
        imgs = stub_images(6)
        server.run([(i * 0.001, imgs[i]) for i in range(6)])
        spans = [e for e in bus.sink.events if e.kind == "span"]
        infer = [e for e in spans if e.name == "serve.infer"]
        assert infer, "expected serve.infer spans"
        # spans live on the virtual timeline and batches never overlap
        # on the single replica
        infer.sort(key=lambda e: e.t_s)
        for a, b in zip(infer, infer[1:]):
            assert a.t_s + a.value <= b.t_s + 1e-12
        depth = [e for e in bus.sink.events if e.name == "serve.queue_depth"]
        assert depth and all(0 <= e.value <= 16 for e in depth)
        batch_sizes = [
            e.value for e in bus.sink.events if e.name == "serve.batch_size"
        ]
        assert batch_sizes and max(batch_sizes) <= 2

    def test_null_bus_run_is_silent_and_identical(self, stub_model):
        imgs = stub_images(5)
        workload = [(i * 0.002, imgs[i]) for i in range(5)]
        quiet = InferenceServer(
            stub_model, services=[FixedServiceModel(100.0)], max_batch_size=2
        )
        loud, _ = _server(
            stub_model, services=[FixedServiceModel(100.0)], max_batch_size=2
        )
        rq = quiet.run(workload)
        rl = loud.run(workload)
        assert [(r.req_id, r.status, r.done_s) for r in rq] == [
            (r.req_id, r.status, r.done_s) for r in rl
        ]


class TestDeterminism:
    def test_identical_workloads_replay_identical_schedules(self, stub_model):
        imgs = stub_images(12)
        workload = [(i * 0.0007, imgs[i % 12], 0.03 + i * 0.001) for i in range(24)]

        def one_run():
            server, _ = _server(
                stub_model,
                services=[FixedServiceModel(300.0), FixedServiceModel(100.0)],
                max_batch_size=3,
                max_wait_s=0.002,
                queue_capacity=8,
                cache_capacity=4,
            )
            resp = server.run(workload)
            return [
                (r.req_id, r.status, r.done_s, r.replica_id, r.batch_id, r.cache_hit)
                for r in resp
            ]

        assert one_run() == one_run()

    def test_run_validates_arrival_order(self, stub_model):
        server, _ = _server(stub_model)
        imgs = stub_images(2)
        with pytest.raises(ValueError, match="non-decreasing"):
            server.run([(1.0, imgs[0]), (0.5, imgs[1])])
        server.clock.advance(5.0)
        with pytest.raises(ValueError, match="before now"):
            server.run([(1.0, imgs[0])])


class TestLatencyStats:
    def test_percentiles_over_ok_responses_only(self, stub_model):
        server, _ = _server(
            stub_model,
            services=[FixedServiceModel(100.0)],
            max_batch_size=1,
            queue_capacity=64,
        )
        imgs = stub_images(10)
        responses = server.run([(i * 0.05, imgs[i]) for i in range(10)])
        stats = latency_stats(responses)
        assert stats["n_ok"] == 10
        assert 0 < stats["p50_ms"] <= stats["p99_ms"] <= stats["max_ms"]
        assert latency_stats([])["n_ok"] == 0

    def test_small_sample_p99_is_an_observed_latency(self):
        # With < ~100 samples, interpolated p99 would sit *below* the
        # worst response; method="higher" pins it to an observed value.
        from repro.serve.queue import Response

        responses = [
            Response(req_id=i, status="ok", arrival_s=0.0, done_s=lat)
            for i, lat in enumerate([0.010, 0.011, 0.012, 0.013, 0.250])
        ]
        stats = latency_stats(responses)
        observed_ms = {r.latency_s * 1e3 for r in responses}
        assert stats["p99_ms"] in observed_ms
        assert stats["p99_ms"] == stats["max_ms"] == 250.0

    def test_empty_responses_guard_has_all_keys_and_no_tenants(self):
        stats = latency_stats([])
        assert stats == {
            "n_ok": 0,
            "p50_ms": None,
            "p99_ms": None,
            "mean_ms": None,
            "max_ms": None,
        }

    def test_per_tenant_breakdown_keeps_aggregate_keys(self):
        from repro.serve.queue import Response

        responses = [
            Response(req_id=0, status="ok", arrival_s=0.0, done_s=0.010, tenant="a"),
            Response(req_id=1, status="ok", arrival_s=0.0, done_s=0.030, tenant="a"),
            Response(req_id=2, status="ok", arrival_s=0.0, done_s=0.020, tenant="b"),
            Response(
                req_id=3, status="timeout", arrival_s=0.0, done_s=0.5, tenant="b"
            ),
            Response(req_id=4, status="ok", arrival_s=0.0, done_s=0.040),
        ]
        stats = latency_stats(responses)
        # Aggregate keys are exactly the single-tenant ones, over all ok.
        assert stats["n_ok"] == 4
        assert stats["max_ms"] == pytest.approx(40.0)
        assert sorted(stats["tenants"]) == ["a", "b"]
        assert stats["tenants"]["a"]["n_ok"] == 2
        assert stats["tenants"]["a"]["max_ms"] == pytest.approx(30.0)
        # Tenant b's timeout is excluded from its latency block.
        assert stats["tenants"]["b"]["n_ok"] == 1
        assert stats["tenants"]["b"]["p99_ms"] == pytest.approx(20.0)
        # Anonymous responses appear only in the aggregate.
        assert "" not in stats["tenants"]
