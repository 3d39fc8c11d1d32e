"""Server integration: differential bit-identity, backpressure, timeouts,
caching, telemetry, schedule determinism, and the one-of-each pins (one
queue class, one site that books a verdict)."""

from __future__ import annotations

import ast
import inspect
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np
import pytest

from repro.eval.features import extract_features
from repro.models.mae import MaskedAutoencoder
import repro.serve
from repro.serve import (
    AdmissionController,
    FixedServiceModel,
    InferenceServer,
    Request,
    Response,
    ServerStats,
    TenantCounts,
    TrafficEvent,
    VirtualClock,
    latency_stats,
)
from repro.serve.ledger import book_counters
from repro.telemetry import RecordingSink, TelemetryBus

from tests.test_serve.conftest import stub_images

SERVE_SRC = Path(repro.serve.__file__).parent


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


class TestNonFiniteTimesAreRefusedAtTheDoor:
    """NaN compares false with everything, so it used to pass every
    ordering check and fail late (a dead loop, a poisoned heap)."""

    @staticmethod
    def _untouched(server):
        assert server.clock.now() == 0.0
        assert server.stats == ServerStats() and server.responses == []
        assert len(server.queue) == 0 and server.queue.min_deadline_s() is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_run_refuses_a_non_finite_arrival_before_the_clock_moves(
        self, stub_model, bad
    ):
        server, bus = _server(stub_model)
        imgs = stub_images(2)
        with pytest.raises(ValueError, match="arrival time must be finite"):
            server.run([(0.0, imgs[0]), (bad, imgs[1])])
        self._untouched(server)
        assert bus.sink.events == []

    def test_run_refuses_a_nan_deadline_before_anything_is_admitted(self, stub_model):
        server, _ = _server(stub_model)
        imgs = stub_images(2)
        with pytest.raises(ValueError, match="deadline_s must not be NaN"):
            server.run([(0.0, imgs[0], 1.0), (0.1, imgs[1], float("nan"))])
        self._untouched(server)

    def test_submit_refuses_a_nan_deadline_before_the_ledger_moves(self, stub_model):
        server, bus = _server(stub_model)
        with pytest.raises(ValueError, match="deadline_s must not be NaN"):
            server.submit(stub_images(1)[0], deadline_s=float("nan"))
        self._untouched(server)
        assert bus.sink.events == []
        # The refusal consumed no req_id.
        assert server.submit(stub_images(1)[0], deadline_s=None) == 0

    def test_an_infinite_deadline_is_best_effort(self, stub_model):
        server, _ = _server(stub_model)
        [r] = server.run([(0.0, stub_images(1)[0], float("inf"))])
        assert r.status == "ok" and server.stats.reconciles()


class TestRunChecksEveryArrivalAtTheDoor:
    """A deadline before its own arrival or a misshapen image used to
    fail mid-run, after earlier arrivals were admitted and served and the
    clock had moved; ``run`` now refuses the whole workload first."""

    _untouched = staticmethod(TestNonFiniteTimesAreRefusedAtTheDoor._untouched)

    def test_run_refuses_a_deadline_before_its_arrival_before_anything_is_admitted(
        self, stub_model
    ):
        server, bus = _server(stub_model)
        img = stub_images(1)[0]
        with pytest.raises(ValueError, match=r"already past \(now=0.5\)"):
            server.run([(0.0, img, 1.0), (0.5, img, 0.2)])
        self._untouched(server)
        assert bus.sink.events == []

    def test_run_refuses_a_misshapen_image_before_anything_is_admitted(self, stub_model):
        server, bus = _server(stub_model)
        imgs = stub_images(2)
        with pytest.raises(ValueError, match=r"must be \(C, H, W\)"):
            server.run([(0.0, imgs[0]), (0.5, imgs[1][0])])
        self._untouched(server)
        assert bus.sink.events == []

    def test_run_traffic_checks_its_events_at_the_same_door(self, stub_model):
        server, _ = _server(stub_model)
        img = stub_images(1)[0]
        with pytest.raises(ValueError, match="already past"):
            server.run_traffic(
                [TrafficEvent(0.0, "a", img, 1.0), TrafficEvent(0.5, "a", img, 0.2)]
            )
        self._untouched(server)

    def test_submit_keeps_its_own_checks(self, stub_model):
        server, bus = _server(stub_model)
        server.clock.advance_to(1.0)
        with pytest.raises(ValueError, match=r"already past \(now=1.0\)"):
            server.submit(stub_images(1)[0], deadline_s=0.5)
        with pytest.raises(ValueError, match=r"must be \(C, H, W\)"):
            server.submit(stub_images(1)[0][0])
        assert server.stats == ServerStats() and server.responses == []
        assert bus.sink.events == []


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


# -- one of each ---------------------------------------------------------------


def _in_functions(node_type):
    """``(file, function, node)`` for every ``node_type`` node inside a
    function anywhere under ``src/repro/serve``."""
    for py in sorted(SERVE_SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(py.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, node_type):
                        yield py.name, fn.name, node


def _method_calls(attr):
    for file, fn, call in _in_functions(ast.Call):
        if isinstance(call.func, ast.Attribute) and call.func.attr == attr:
            yield file, fn, call


#: The counters a run books off its decided responses.
VERDICT_COUNTERS = (
    "serve.submitted",
    "serve.cache_hit",
    "serve.cache_miss",
    "serve.served",
    "serve.timeout",
    "serve.rejected",
)

#: Ledger fields a terminal verdict moves (``rejected`` is the tenant slice's).
OUTCOME_FIELDS = {
    "served",
    "timed_out",
    "rejected",
    "rejected_queue_full",
    "rejected_replica_failure",
    "rejected_rate_limited",
}


class TestOneBookingSite:
    def test_outcome_fields_are_incremented_in_exactly_one_function(self):
        sites = {
            (file, fn)
            for file, fn, node in _in_functions(ast.AugAssign)
            if isinstance(node.target, ast.Attribute)
            and node.target.attr in OUTCOME_FIELDS
        }
        assert sites == {("ledger.py", "book")}
        assert {(f, fn) for f, fn, _ in _method_calls("book")} == {
            ("server.py", "_finish")
        }

    def test_per_request_code_makes_no_counter_call_and_the_run_books_each_name(
        self,
    ):
        sites = {(file, fn) for file, fn, _ in _method_calls("counter")}
        for per_request in (
            ("server.py", "_admit"),
            ("server.py", "_finish"),
            ("server.py", "_deliver_ok"),
            ("server.py", "_sweep_expired"),
            ("ledger.py", "book"),
        ):
            assert per_request not in sites, per_request
        # Each verdict name is a literal at one counter call, the
        # booking's, where tools/lint.py's telemetry_names rule reads it.
        literal = [
            (call.args[0].value, (file, fn))
            for file, fn, call in _method_calls("counter")
            if call.args and isinstance(call.args[0], ast.Constant)
        ]
        for verdict in VERDICT_COUNTERS:
            assert [site for name, site in literal if name == verdict] == [
                ("ledger.py", "book_counters")
            ], verdict

    def test_a_second_verdict_for_one_request_still_raises(self, stub_model):
        server, _ = _server(stub_model)
        [r] = server.run([(0.0, stub_images(1)[0])])
        before = server.stats.to_json()
        with pytest.raises(RuntimeError, match="already has a terminal response"):
            server._finish(r)
        assert server.stats.to_json() == before and len(server.responses) == 1

    @pytest.mark.parametrize(
        "fields, aggregate, tenant_field, counter, attrs",
        [
            (dict(status="ok"), "served", "served", "serve.served", {}),
            (
                dict(status="timeout"),
                "timed_out",
                "timed_out",
                "serve.timeout",
                {"where": "queued"},
            ),
            (
                dict(status="timeout", batch_id=3),
                "timed_out",
                "timed_out",
                "serve.timeout",
                {"where": "inflight"},
            ),
        ]
        + [
            (
                dict(status="rejected", reason=reason),
                f"rejected_{reason}",
                "rejected",
                "serve.rejected",
                {"reason": reason},
            )
            for reason in ("queue_full", "replica_failure", "rate_limited")
        ],
    )
    def test_book_reads_field_slice_and_counter_off_the_response(
        self, fields, aggregate, tenant_field, counter, attrs
    ):
        response = Response(req_id=0, arrival_s=0.0, done_s=1.0, tenant="t", **fields)
        stats = ServerStats()
        stats.book(response)
        assert stats.to_json() == {
            **ServerStats().to_json(),
            aggregate: 1,
            "tenants": {"t": {**TenantCounts().to_json(), tenant_field: 1}},
        }
        # The run's booking reads the same response: submitted, then its
        # verdict (the cache is off, so no hit or miss).
        bus = TelemetryBus(RecordingSink(), clock=VirtualClock().now)
        book_counters(bus, [response, response], cached=False)
        assert [
            (e.name, e.value, list(e.attrs.items())) for e in bus.sink.events
        ] == [
            ("serve.submitted", 2.0, [("tenant", "t")]),
            (counter, 2.0, [*attrs.items(), ("tenant", "t")]),
        ]


class TestOneQueueAndNoDeadSurface:
    def test_exactly_one_class_defines_push_front(self):
        owners = [
            (py.name, cls.name)
            for py in sorted(SERVE_SRC.glob("*.py"))
            for cls in ast.walk(ast.parse(py.read_text(encoding="utf-8")))
            if isinstance(cls, ast.ClassDef)
            and any(
                isinstance(fn, ast.FunctionDef) and fn.name == "push_front"
                for fn in cls.body
            )
        ]
        assert owners == [("admission.py", "FairRequestQueue")]
        assert not hasattr(repro.serve, "RequestQueue")
        assert "RequestQueue" not in repro.serve.__all__

    def test_the_server_runs_on_that_class_with_or_without_admission(self, stub_model):
        plain = InferenceServer(stub_model, services=[FixedServiceModel(1.0)])
        ctrl = AdmissionController([], capacity=4)
        fair = InferenceServer(
            stub_model, services=[FixedServiceModel(1.0)], admission=ctrl
        )
        assert type(plain.queue) is type(fair.queue) is repro.serve.FairRequestQueue
        assert fair.queue is ctrl.queue
        # Lanes are decided at construction: shared without a controller,
        # per tenant (default lanes included) with one — even an empty one.
        assert plain.queue.spec_for("a") is plain.queue.spec_for("b")
        assert fair.queue.spec_for("a") is not fair.queue.spec_for("b")

    def test_fields_and_methods_nobody_read_are_gone(self):
        assert "priority" not in {f.name for f in dataclass_fields(Request)}
        assert "attrs" not in {f.name for f in dataclass_fields(Response)}
        assert not hasattr(AdmissionController, "priority_of")
        assert not hasattr(InferenceServer, "response_for")


class TestLedgerJson:
    def test_key_order_is_the_declared_field_order(self):
        assert tuple(TenantCounts().to_json()) == (
            "submitted",
            "served",
            "rejected",
            "timed_out",
        )
        assert tuple(ServerStats().to_json()) == (
            "submitted",
            "served",
            "rejected_queue_full",
            "rejected_replica_failure",
            "rejected_rate_limited",
            "timed_out",
            "requeued",
            "replica_faults",
            "batches",
            "batched_images",
            "cache_hits",
            "cache_misses",
        )

    def test_tenants_appear_only_when_present_sorted_and_last(self):
        stats = ServerStats(submitted=3, served=2)
        assert "tenants" not in stats.to_json()
        stats.tenant("zeta").submitted = 2
        stats.tenant("alpha").served = 1
        out = stats.to_json()
        assert list(out)[-1] == "tenants" and out["submitted"] == 3
        assert list(out["tenants"]) == ["alpha", "zeta"]
        assert out["tenants"]["zeta"] == {
            "submitted": 2,
            "served": 0,
            "rejected": 0,
            "timed_out": 0,
        }
