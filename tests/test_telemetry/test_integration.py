"""End-to-end telemetry: recorded DDP/FSDP runs, faults, figs, power.

The acceptance runs of the observability layer: a recording-sink DDP run
and an FSDP FULL_SHARD run each produce a JSONL stream and a
Perfetto-valid Chrome trace; retry backoff from injected faults is
attributed to the step that incurred it; the fig1/fig2 communication
shares come from bus gauges and agree with the performance model.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.comm.collectives import SimComm
from repro.comm.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.comm.world import World
from repro.core.engine import EngineConfig, make_engine
from repro.core.scaling import publish_breakdown, run_weak_scaling
from repro.core.trainer import MAEPretrainer
from repro.data.datasets import ArrayDataset
from repro.hardware.power import PowerModel
from repro.models.mae import MaskedAutoencoder
from repro.telemetry import (
    RecordingSink,
    RunReport,
    TelemetryBus,
    read_jsonl,
    to_trace_events,
    write_span_trace,
)
from tests.test_data.dataloader import DataLoader

N_STEPS = 3


def _recorded_run(tiny_mae_cfg, strategy: str, bus: TelemetryBus, comm=None):
    rng = np.random.default_rng(0)
    images = rng.standard_normal((64, 3, 16, 16))
    model = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(1))
    engine = make_engine(
        model,
        strategy,
        world=World(4, ranks_per_node=2),
        config=EngineConfig(telemetry=bus, comm=comm),
    )
    trainer = MAEPretrainer(engine, images, global_batch=16, seed=0)
    result = trainer.run(N_STEPS)
    return engine, result


@pytest.mark.parametrize("strategy", ["ddp", "full_shard"])
def test_recorded_run_produces_jsonl_and_perfetto_trace(
    tiny_mae_cfg, strategy, tmp_path
):
    sink = RecordingSink()
    bus = TelemetryBus(sink)
    engine, result = _recorded_run(tiny_mae_cfg, strategy, bus)
    events = sink.events
    assert events, "recording run emitted no events"

    # Per-step skeleton: one compute span, one optimizer span, the
    # four StepStats gauges; at least one collective span per step.
    by_name = {}
    for e in events:
        by_name.setdefault(e.name, []).append(e)
    assert len(by_name["compute.fwd_bwd"]) == N_STEPS
    assert len(by_name["optim.step"]) == N_STEPS
    for g in ("step.wall_s", "step.images_per_s", "step.loss", "step.lr"):
        assert len(by_name[g]) == N_STEPS
    comm_spans = [e for e in events if e.name.startswith("comm.")]
    assert len(comm_spans) >= N_STEPS
    assert all(e.attrs.get("bytes", 0) > 0 for e in comm_spans)
    # Every event is attributed to a valid step.
    assert all(e.step in range(N_STEPS) for e in events)
    # Recorded losses match the trainer's.
    assert [e.value for e in by_name["step.loss"]] == pytest.approx(result.losses)

    # Collective spans record logical buffer sizes; applying CommStats'
    # per-op wire formulas to them must reproduce its wire-byte total.
    report = RunReport.from_events(events)
    g = 4  # group size: both strategies collect over the full world here

    def wire(op: str, full: float) -> float:
        if op == "all_reduce":
            return 2 * (g - 1) * full
        return (g - 1) * full  # all_gather / reduce_scatter

    expected_wire = sum(
        wire(e.name.split(".", 1)[1], e.attrs["bytes"]) for e in comm_spans
    )
    assert expected_wire == pytest.approx(engine.comm.stats.total_bytes)
    assert report.span_bytes("comm.") > 0
    assert 0.0 < report.comm_share < 1.0
    assert report.n_steps == N_STEPS

    # JSONL export round-trips.
    jsonl = tmp_path / f"{strategy}.jsonl"
    with open(jsonl, "w", encoding="utf-8") as f:
        for e in events:
            f.write(json.dumps(e.to_json()) + "\n")
    loaded = read_jsonl(jsonl)
    assert loaded == events
    assert RunReport.from_jsonl(jsonl).comm_share == pytest.approx(report.comm_share)

    # Chrome trace is structurally valid for Perfetto: JSON object with
    # a traceEvents list whose X entries carry ts/dur and nest properly.
    trace_path = tmp_path / f"{strategy}_trace.json"
    write_span_trace(events, str(trace_path))
    doc = json.loads(trace_path.read_text())
    xs = [t for t in doc["traceEvents"] if t.get("ph") == "X"]
    assert len(xs) == sum(1 for e in events if e.kind == "span")
    for x in xs:
        assert x["dur"] >= 0 and x["ts"] >= 0
        assert x["cat"] in {"comm", "compute", "optim"}
    # Nesting: every comm span that overlaps a compute span is inside it.
    spans = [e for e in events if e.kind == "span"]
    for outer in (s for s in spans if s.name == "compute.fwd_bwd"):
        for inner in (s for s in spans if s.depth > 0):
            if outer.t_s <= inner.t_s < outer.t_s + outer.value:
                assert inner.t_s + inner.value <= outer.t_s + outer.value + 1e-9


def test_telemetry_does_not_change_numerics(tiny_mae_cfg):
    bus = TelemetryBus(RecordingSink())
    _, recorded = _recorded_run(tiny_mae_cfg, "full_shard", bus)
    _, silent = _recorded_run(tiny_mae_cfg, "full_shard", TelemetryBus())
    assert recorded.losses == silent.losses


def test_retry_backoff_attributed_to_step(tiny_mae_cfg):
    # Arm one transient all-reduce fault a few calls in; the engine's
    # retry succeeds, and the backoff lands on the step that paid it.
    plan = FaultPlan([FaultSpec(op="all_reduce", kind="transient", call_index=2)])
    sink = RecordingSink()
    bus = TelemetryBus(sink)
    engine, _ = _recorded_run(
        tiny_mae_cfg, "ddp", bus, comm=SimComm(fault_plan=plan)
    )
    stats = engine.comm.stats
    assert stats.total_retries == 1
    retries = [e for e in sink.events if e.name == "comm.retries"]
    backoffs = [e for e in sink.events if e.name == "comm.backoff_s"]
    assert len(retries) == 1 and len(backoffs) == 1
    assert retries[0].value == pytest.approx(1.0)
    assert backoffs[0].value == pytest.approx(stats.backoff_seconds)
    assert backoffs[0].value > 0
    # Attributed to a concrete step, with the op attached.
    assert retries[0].step is not None
    assert retries[0].attrs["op"] == "all_reduce"


def test_exhausted_retry_budget_still_charges_backoff(tiny_mae_cfg):
    # A hard fault (times > max_retries) propagates CollectiveError, but
    # the backoff spent on the doomed retries is still emitted.
    from repro.comm.faults import CollectiveError

    plan = FaultPlan([
        FaultSpec(op="all_reduce", kind="transient", call_index=0, times=10)
    ])
    sink = RecordingSink()
    bus = TelemetryBus(sink)
    rng = np.random.default_rng(0)
    images = rng.standard_normal((64, 3, 16, 16))
    model = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(1))
    engine = make_engine(
        model,
        "ddp",
        world=World(4, ranks_per_node=2),
        config=EngineConfig(
            telemetry=bus,
            comm=SimComm(fault_plan=plan),
            retry_policy=RetryPolicy(max_retries=2),
        ),
    )
    trainer = MAEPretrainer(engine, images, global_batch=16, seed=0)
    with pytest.raises(CollectiveError):
        trainer.run(1)
    backoffs = [e for e in sink.events if e.name == "comm.backoff_s"]
    assert len(backoffs) == 1
    assert backoffs[0].value == pytest.approx(engine.comm.stats.backoff_seconds)
    assert backoffs[0].step == 0


def test_dataloader_fetch_spans():
    rng = np.random.default_rng(0)
    ds = ArrayDataset(
        images=rng.standard_normal((20, 3, 8, 8)),
        labels=rng.integers(0, 4, size=20),
    )
    sink = RecordingSink()
    loader = DataLoader(ds, batch_size=8, telemetry=TelemetryBus(sink))
    batches = list(loader)
    fetches = [e for e in sink.events if e.name == "data.fetch"]
    assert len(fetches) == len(batches) == 3
    assert [e.attrs["batch"] for e in fetches] == [8, 8, 4]
    # Off by default: no bus, no events, same batches.
    silent = DataLoader(ds, batch_size=8)
    for (a, _), (b, _) in zip(silent, batches):
        np.testing.assert_array_equal(a, b)


def test_power_trace_emits_gauges():
    trace = PowerModel().trace(
        step_time_s=1.0,
        compute_occupancy=0.8,
        comm_occupancy=0.3,
        memory_bytes=1e9,
        n_steps=2,
        samples_per_step=2,
        label="FULL_SHARD",
    )
    sink = RecordingSink()
    bus = TelemetryBus(sink)
    n = trace.emit(bus)
    assert n == len(sink.events) == 3 * 4
    power = [e for e in sink.events if e.name == "hw.power_w"]
    assert len(power) == 4
    assert all(e.attrs["label"] == "FULL_SHARD" for e in power)
    assert np.mean([e.value for e in power]) == pytest.approx(
        trace.mean_power, rel=1e-12
    )
    # Disabled bus: nothing emitted, zero reported.
    assert trace.emit(TelemetryBus()) == 0


def test_scaling_driver_publishes_perf_gauges(tiny_vit_cfg):
    from repro.telemetry import comm_share_from_events

    sink = RecordingSink()
    bus = TelemetryBus(sink)
    series = run_weak_scaling(tiny_vit_cfg, "NO_SHARD", [1, 2], telemetry=bus)
    for point in series.points:
        share = comm_share_from_events(sink.events, nodes=point.n_nodes)
        assert share == pytest.approx(point.breakdown.comm_fraction)
    steps = [e for e in sink.events if e.name == "perf.step_time_s"]
    assert [e.attrs["nodes"] for e in steps] == [1, 2]
    assert all(e.attrs["strategy"] == "NO_SHARD" for e in steps)


def test_publish_breakdown_disabled_bus_is_noop(tiny_vit_cfg):
    from repro.hardware.frontier import frontier_machine
    from repro.perf.simulator import TrainStepSimulator
    from repro.core.sharding import ShardingStrategy

    sim = TrainStepSimulator(
        tiny_vit_cfg, frontier_machine(1), ShardingStrategy.NO_SHARD
    )
    publish_breakdown(TelemetryBus(), sim.simulate(), nodes=1)  # must not raise
