"""Telemetry: measured observability for every training step.

The in-process instrumentation bus (:mod:`repro.telemetry.bus`) the hot
layers publish spans/counters/gauges to, the run-level aggregation
(:mod:`repro.telemetry.report`), and the Perfetto/Chrome-trace exporter
for measured runs (:mod:`repro.telemetry.chrome`).

Attach a sink to turn it on::

    from repro import TelemetryBus, RecordingSink, RunReport, make_engine

    bus = TelemetryBus(RecordingSink())
    engine = make_engine(model, "full_shard", world=world,
                         config=EngineConfig(telemetry=bus))
    trainer = MAEPretrainer(engine, images, global_batch=64)
    trainer.run(50)
    print(RunReport.from_events(bus.sink.events).render())

The default sink is :class:`~repro.telemetry.bus.NullSink` — telemetry
is opt-in and near-free when off (guarded by the hot-path benchmark
regression gate).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "bus": (
            "TelemetryBus",
            "TelemetryEvent",
            "Sink",
            "NullSink",
            "RecordingSink",
            "JsonlSink",
            "StepStats",
            "NULL_BUS",
            "read_jsonl",
        ),
        "report": (
            "RunReport",
            "SpanAgg",
            "GaugeAgg",
            "gauge_series",
            "comm_share_from_events",
        ),
        "chrome": ("to_trace_events", "write_span_trace"),
    },
)
