"""Unit tests of the telemetry bus primitives.

Span nesting/depth, counter/gauge aggregation, JSONL round-trips, and
the NullSink contract (no events, cached no-op span, bounded per-call
overhead).
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

import numpy as np
import pytest

from repro.telemetry import (
    NULL_BUS,
    JsonlSink,
    NullSink,
    RecordingSink,
    RunReport,
    StepStats,
    TelemetryBus,
    TelemetryEvent,
    comm_share_from_events,
    gauge_series,
    read_jsonl,
    to_trace_events,
    write_span_trace,
)


class FakeClock:
    """Deterministic clock: every read advances by ``tick`` seconds."""

    def __init__(self, tick: float = 1.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        t = self.now
        self.now += self.tick
        return t


def test_span_nesting_depth_and_timing():
    sink = RecordingSink()
    bus = TelemetryBus(sink, clock=FakeClock(tick=1.0))
    with bus.span("outer"):
        with bus.span("inner", bytes=10.0):
            pass
    # Inner exits first.
    inner, outer = sink.events
    assert inner.name == "inner" and outer.name == "outer"
    assert inner.depth == 1 and outer.depth == 0
    assert inner.kind == "span" and outer.kind == "span"
    assert inner.attrs == {"bytes": 10.0}
    # FakeClock ticks once per read: epoch=0, outer start=1, inner
    # start=2, inner end=3, outer end=4.
    assert inner.value == pytest.approx(1.0)
    assert outer.value == pytest.approx(3.0)
    assert outer.t_s == pytest.approx(1.0)
    assert bus._depth == 0


def test_record_span_emits_explicit_duration():
    # Event-driven code (the serving loop) knows start and duration
    # directly rather than bracketing a with-block.
    sink = RecordingSink()
    clock = FakeClock(tick=1.0)
    bus = TelemetryBus(sink, clock=clock)
    bus.set_step(2)
    bus.record_span("serve.infer", start_s=5.0, duration_s=0.25, replica=1)
    [e] = sink.events
    assert e.kind == "span" and e.name == "serve.infer"
    # t_s is relative to the bus epoch (FakeClock read 0.0 at init).
    assert e.t_s == pytest.approx(5.0)
    assert e.value == pytest.approx(0.25)
    assert e.step == 2
    assert e.attrs == {"replica": 1}
    with pytest.raises(ValueError, match="duration"):
        bus.record_span("x", start_s=0.0, duration_s=-1.0)


def test_record_span_is_noop_when_disabled():
    bus = TelemetryBus()
    bus.record_span("x", start_s=0.0, duration_s=1.0)  # must not raise
    assert not bus.enabled


def test_span_depth_restored_when_body_raises():
    sink = RecordingSink()
    bus = TelemetryBus(sink)
    with pytest.raises(RuntimeError):
        with bus.span("boom"):
            raise RuntimeError("body failed")
    # The span still emitted and the depth unwound.
    assert [e.name for e in sink.events] == ["boom"]
    assert bus._depth == 0


def test_step_attribution():
    sink = RecordingSink()
    bus = TelemetryBus(sink)
    bus.counter("pre", 1.0)
    bus.set_step(7)
    bus.counter("in", 1.0)
    bus.gauge("g", 2.0)
    with bus.span("s"):
        pass
    pre, inside, gauge, span = sink.events
    assert pre.step is None
    assert inside.step == 7 and gauge.step == 7 and span.step == 7


def test_counter_and_gauge_aggregation():
    sink = RecordingSink()
    bus = TelemetryBus(sink)
    bus.counter("comm.retries", 2, op="all_reduce")
    bus.counter("comm.retries", 3, op="all_gather")
    bus.gauge("step.loss", 1.5)
    bus.gauge("step.loss", 0.5)
    report = RunReport.from_events(sink.events)
    assert report.counters["comm.retries"] == pytest.approx(5.0)
    agg = report.gauges["step.loss"]
    assert agg.count == 2
    assert agg.mean == pytest.approx(1.0)
    assert agg.last == pytest.approx(0.5)
    assert agg.min == pytest.approx(0.5) and agg.max == pytest.approx(1.5)


def test_step_stats_emit():
    sink = RecordingSink()
    bus = TelemetryBus(sink)
    StepStats(step=3, wall_s=0.5, images_per_s=128.0, loss=0.9, lr=1e-3).emit(bus)
    names = {e.name: e for e in sink.events}
    assert set(names) == {
        "step.wall_s", "step.images_per_s", "step.loss", "step.lr",
    }
    assert all(e.step == 3 and e.kind == "gauge" for e in sink.events)
    assert names["step.images_per_s"].value == pytest.approx(128.0)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    bus = TelemetryBus(JsonlSink(path))
    bus.set_step(1)
    with bus.span("comm.all_reduce", bytes=64.0):
        pass
    bus.counter("comm.retries", 1.0, op="all_reduce")
    bus.gauge("step.loss", 0.25)
    bus.close()
    assert bus.sink.n_events == 3
    events = read_jsonl(path)
    assert [e.kind for e in events] == ["span", "counter", "gauge"]
    assert events[0].attrs == {"bytes": 64.0}
    assert all(e.step == 1 for e in events)
    # Round-trip is exact: re-serializing matches the file.
    lines = path.read_text().strip().splitlines()
    assert [json.loads(ln) for ln in lines] == [e.to_json() for e in events]


def test_event_json_round_trip_identity():
    e = TelemetryEvent(
        kind="span", name="x.y", value=1.25, t_s=0.5, step=4, depth=2,
        attrs={"bytes": 3.0, "op": "all_gather"},
    )
    assert TelemetryEvent.from_json(e.to_json()) == e


def test_null_sink_is_disabled_and_emits_nothing():
    bus = TelemetryBus()
    assert isinstance(bus.sink, NullSink)
    assert not bus.enabled
    span_a = bus.span("a")
    span_b = bus.span("b", bytes=1.0)
    # The no-op span is a cached singleton — zero allocation per call.
    assert span_a is span_b
    with span_a:
        bus.counter("c", 1.0)
        bus.gauge("g", 2.0)
    assert not NULL_BUS.enabled


def test_attach_swaps_enabled_state():
    bus = TelemetryBus()
    assert not bus.enabled
    sink = RecordingSink()
    assert bus.attach(sink) is bus
    assert bus.enabled
    with bus.span("x"):
        pass
    assert len(sink.events) == 1
    bus.attach(NullSink())
    assert not bus.enabled


def test_gauge_series_and_comm_share_filtering():
    sink = RecordingSink()
    bus = TelemetryBus(sink)
    bus.gauge("perf.step_time_s", 2.0, nodes=8)
    bus.gauge("perf.exposed_comm_s", 0.5, nodes=8)
    bus.gauge("perf.step_time_s", 4.0, nodes=64)
    bus.gauge("perf.exposed_comm_s", 2.0, nodes=64)
    assert gauge_series(sink.events, "perf.step_time_s", nodes=64) == [4.0]
    assert comm_share_from_events(sink.events, nodes=8) == pytest.approx(0.25)
    assert comm_share_from_events(sink.events, nodes=64) == pytest.approx(0.5)
    # No matching events -> 0, not a division error.
    assert comm_share_from_events(sink.events, nodes=2) == 0.0


def test_chrome_trace_export(tmp_path):
    sink = RecordingSink()
    bus = TelemetryBus(sink)
    bus.set_step(0)
    with bus.span("compute.fwd_bwd"):
        with bus.span("comm.all_reduce", bytes=128.0):
            pass
    bus.gauge("step.loss", 1.0)
    trace = to_trace_events(sink.events)
    xs = [t for t in trace if t["ph"] == "X"]
    cs = [t for t in trace if t["ph"] == "C"]
    assert len(xs) == 2 and len(cs) == 1
    for x in xs:
        assert set(x) >= {"name", "ph", "pid", "tid", "ts", "dur", "cat"}
        assert x["dur"] >= 0
    assert {x["cat"] for x in xs} == {"compute", "comm"}
    path = tmp_path / "trace.json"
    write_span_trace(sink.events, str(path))
    loaded = json.loads(path.read_text())
    assert isinstance(loaded["traceEvents"], list)
    assert len(loaded["traceEvents"]) == len(trace)


def test_measured_trace_export_is_pinned(tmp_path):
    """A measured stream (no ``stream`` attrs) exports byte-for-byte as
    it did before the writer also served simulated steps: one ``train``
    lane, the same keys in the same order."""
    sink = RecordingSink()
    bus = TelemetryBus(sink, clock=FakeClock(tick=0.25))
    bus.set_step(0)
    with bus.span("compute.fwd_bwd"):
        with bus.span("comm.all_reduce", bytes=128.0, axis="dp"):
            pass
    bus.counter("comm.retries", 2.0, op="all_reduce")
    bus.set_step(1)
    with bus.span("optim.step"):
        bus.gauge("step.loss", 1.5)
    bus.set_step(None)
    bus.record_span("serve.batch", 0.5, 0.125, size=4)
    path = tmp_path / "trace.json"
    write_span_trace(sink.events, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "60ddf6f8b8f410497e29676b1cd38f0b59a177e69b252486a1437396bc849f54"
    )


def test_run_report_render_mentions_core_quantities():
    sink = RecordingSink()
    bus = TelemetryBus(sink)
    with bus.span("comm.all_reduce", bytes=8.0):
        pass
    bus.counter("comm.retries", 1.0)
    StepStats(step=0, wall_s=0.1, images_per_s=640.0, loss=0.5, lr=1e-3).emit(bus)
    text = RunReport.from_events(sink.events).render()
    assert "comm share" in text
    assert "comm.all_reduce" in text
    assert "comm.retries" in text


def test_nullsink_per_step_overhead_under_5_percent(tiny_mae_cfg):
    """Disabled-bus overhead budget: (events the instrumentation would
    emit per step) x (measured cost of one disabled call) must stay
    under 5% of a measured step's wall time."""
    from repro.comm.world import World
    from repro.core.engine import make_engine
    from repro.core.trainer import MAEPretrainer
    from repro.models.mae import MaskedAutoencoder

    rng = np.random.default_rng(0)
    images = rng.standard_normal((64, 3, 16, 16))

    # Count instrumentation call sites per step via a recording run.
    sink = RecordingSink()
    bus = TelemetryBus(sink)
    model = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(1))
    engine = make_engine(
        model, "full_shard", world=World(4, ranks_per_node=2), telemetry=bus
    )
    MAEPretrainer(engine, images, global_batch=16, seed=0).run(2)
    calls_per_step = len(sink.events) / 2

    # Measure the cost of one disabled span (the most expensive of the
    # disabled-path calls: one method call + one enabled check + a
    # no-op context manager).
    null_bus = TelemetryBus()
    n = 20_000
    t0 = perf_counter()
    for _ in range(n):
        with null_bus.span("comm.all_reduce"):
            pass
    cost_per_call = (perf_counter() - t0) / n

    # Median step wall time with telemetry off.
    model2 = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(1))
    engine2 = make_engine(model2, "full_shard", world=World(4, ranks_per_node=2))
    trainer2 = MAEPretrainer(engine2, images, global_batch=16, seed=0)
    walls = []
    for _ in range(5):
        t0 = perf_counter()
        trainer2.run(1, start_step=engine2.step_count)
        walls.append(perf_counter() - t0)
    median_step = float(np.median(walls))

    overhead = calls_per_step * cost_per_call
    assert overhead < 0.05 * median_step, (
        f"disabled-telemetry overhead {overhead * 1e6:.1f}us/step exceeds 5% "
        f"of the {median_step * 1e3:.2f}ms median step "
        f"({calls_per_step:.0f} calls x {cost_per_call * 1e9:.0f}ns)"
    )
