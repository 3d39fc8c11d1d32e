"""Schedule goldens: the event loop may be rebuilt, the schedule may not move.

Each scenario's digest is a SHA-256 over every response's scheduling
fields, the autoscaler's decision log and the server's ledger. The
literals were computed on the commit *before* the loop was indexed
(PR 17's tree, scanning loop) and pasted here, so any reordering of
batches, any changed replica choice, timestamp or verdict — and, for
the recorded case, any telemetry event added, dropped, or reordered —
fails by value rather than by relation to a second run of the same code.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.traffic_exp import HORIZON_S, tenant_traffics
from repro.serve import (
    AdmissionController,
    Autoscaler,
    AutoscalePolicy,
    FixedServiceModel,
    InferenceServer,
    RateProfile,
    ReplicaFaultPlan,
    ReplicaFaultSpec,
    SyntheticEncoder,
    TenantSpec,
    TenantTraffic,
    VirtualClock,
    generate_workload,
)
from repro.telemetry import RecordingSink, TelemetryBus

#: Computed at commit 06e820a (the scanning loop); never re-derived here.
FIFO_FAULTS = "fa5ffd6afa41875d0213163a86314e89fb08db9fa7e1d68f09ec8a4e19c1c5a7"
THREE_TENANTS = "8001fd4a847b499c0e6f082650925a7257c4160b7819bf38429bf834a1bc509c"
DEADLINE_BURST = "91d8dfccb9475348fb1be0299d795424753ac051d56e80a10bc10dc887a894c1"
THREE_TENANTS_STREAM = "7b2338aaf852174234385a8f8e925c504dbf8191e853c7c2b68e6c33ba98851c"
THREE_TENANTS_N_EVENTS = 5139


def _num(x):
    """Plain floats repr identically whatever scalar type produced them."""
    return None if x is None else float(x)


def schedule_digest(server, responses) -> str:
    rows = [
        (
            r.req_id,
            r.status,
            _num(r.arrival_s),
            _num(r.done_s),
            r.reason,
            r.cache_hit,
            r.replica_id,
            r.batch_id,
            r.tenant,
        )
        for r in responses
    ]
    scale = [
        (_num(e.t_s), e.action, e.n_replicas, _num(e.backlog), _num(e.p99_s))
        for e in (server.autoscaler.events if server.autoscaler else [])
    ]
    ledger = json.dumps(server.stats.to_json(), sort_keys=True)
    return hashlib.sha256(repr((rows, scale, ledger)).encode()).hexdigest()


def stream_digest(events) -> str:
    rows = [
        (
            e.kind,
            e.name,
            _num(e.value),
            _num(e.t_s),
            e.step,
            e.depth,
            tuple(e.attrs.items()),
        )
        for e in events
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _solo_events(rate, deadline_s, horizon_s, seed, working_set=6):
    traffic = TenantTraffic(
        TenantSpec("solo"),
        RateProfile(base_rate_ips=rate),
        deadline_s=deadline_s,
        working_set=working_set,
        image_shape=(1, 2, 2),
    )
    return generate_workload([traffic], horizon_s=horizon_s, seed=seed)


def _three_tenant_server(telemetry=None, clock=None):
    """`benchmarks/e2e`'s serve_openloop server, setting for setting."""
    traffics = tenant_traffics()
    autoscaler = Autoscaler(
        AutoscalePolicy(
            min_replicas=1,
            max_replicas=6,
            interval_s=0.25,
            slo_s=0.25,
            high_backlog=6.0,
            warmup_s=0.25,
            down_cooldown_s=0.5,
        ),
        lambda: FixedServiceModel(34.0),
        usd_per_hour=1.0,
    )
    server = InferenceServer(
        SyntheticEncoder(),
        services=[FixedServiceModel(34.0)],
        replica_prices=[1.0],
        max_batch_size=8,
        max_wait_s=0.02,
        cache_capacity=8,
        clock=clock if clock is not None else VirtualClock(),
        telemetry=telemetry,
        admission=AdmissionController([t.spec for t in traffics], capacity=1024),
        autoscaler=autoscaler,
    )
    # Seed 7: the fleet grows to its cap and shrinks again (9 scale
    # events) and three requests pass their deadline.
    return server, generate_workload(traffics, HORIZON_S, seed=7)


def test_fifo_with_raise_and_stall_faults():
    # Two replicas, eight faulted dispatches: stalled batches come back
    # through push_front while younger requests (and their deadlines)
    # wait, and every verdict kind occurs.
    plan = ReplicaFaultPlan(
        [
            ReplicaFaultSpec(replica_id=0, kind="stall", dispatch_index=2),
            ReplicaFaultSpec(replica_id=1, kind="raise", dispatch_index=1),
            ReplicaFaultSpec(replica_id=0, kind="raise", dispatch_index=9, times=2),
            ReplicaFaultSpec(replica_id=1, kind="stall", dispatch_index=14),
            ReplicaFaultSpec(replica_id=1, kind="stall", dispatch_index=15),
            ReplicaFaultSpec(replica_id=0, kind="stall", dispatch_index=30, times=2),
        ]
    )
    server = InferenceServer(
        SyntheticEncoder(),
        services=[FixedServiceModel(120.0), FixedServiceModel(80.0)],
        max_batch_size=4,
        max_wait_s=0.01,
        queue_capacity=24,
        cache_capacity=8,
        stall_timeout_s=0.2,
        fault_plan=plan,
    )
    responses = server.run_traffic(
        _solo_events(220.0, 0.3, 2.0, seed=29, working_set=32)
    )
    s = server.stats
    assert s.reconciles() and plan.pending() == 0
    assert s.requeued >= 10 and s.rejected_replica_failure > 0
    assert s.rejected_queue_full > 0 and s.cache_hits > 0
    assert any(r.status == "timeout" and r.batch_id is None for r in responses)
    assert any(r.status == "timeout" and r.batch_id is not None for r in responses)
    assert schedule_digest(server, responses) == FIFO_FAULTS


def test_three_tenants_with_admission_and_autoscaler():
    server, events = _three_tenant_server()
    responses = server.run_traffic(events)
    s = server.stats
    assert s.reconciles()
    assert s.rejected_rate_limited > 0 and s.timed_out > 0
    assert {e.action for e in server.autoscaler.events} == {"up", "down"}
    assert len(server.pool.replicas) + len(server.pool.retired) == 6
    assert schedule_digest(server, responses) == THREE_TENANTS


@pytest.mark.parametrize("fair_queue", [False, True], ids=["fifo", "fair"])
def test_deadline_heavy_burst_times_out_queued_and_in_flight(fair_queue):
    # One literal for both queue classes: a single-tenant fair queue
    # schedules exactly like the FIFO, expiry sweeps included.
    server = InferenceServer(
        SyntheticEncoder(),
        services=[FixedServiceModel(100.0)] * 2,
        max_batch_size=8,
        max_wait_s=0.03,
        queue_capacity=64,
        admission=(
            AdmissionController([TenantSpec("solo")], capacity=64)
            if fair_queue
            else None
        ),
    )
    responses = server.run_traffic(_solo_events(260.0, 0.3, 1.5, seed=41))
    timeouts = [r for r in responses if r.status == "timeout"]
    queued = sum(1 for r in timeouts if r.batch_id is None)
    assert server.stats.reconciles()
    assert len(timeouts) >= 0.2 * len(responses)
    assert queued >= 10 and len(timeouts) - queued >= 10
    assert schedule_digest(server, responses) == DEADLINE_BURST


def test_recorded_event_stream_of_the_three_tenant_episode():
    # The disabled-bus guards must emit nothing more and nothing less
    # than the unguarded calls did once a sink is attached.
    clock = VirtualClock()
    bus = TelemetryBus(RecordingSink(), clock=clock.now)
    server, events = _three_tenant_server(telemetry=bus, clock=clock)
    responses = server.run_traffic(events)
    assert schedule_digest(server, responses) == THREE_TENANTS
    assert len(bus.sink.events) == THREE_TENANTS_N_EVENTS
    assert stream_digest(bus.sink.events) == THREE_TENANTS_STREAM

