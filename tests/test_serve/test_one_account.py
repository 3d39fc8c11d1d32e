"""One account of a served run: the telemetry stream restates the ledger.

Each scenario is recorded through a :class:`JsonlSink` and read back with
:func:`read_jsonl`; the per-tenant verdicts recomputed from that stream
alone must equal ``server.stats`` and the ``Response``s, and the
:class:`RunReport` aggregates must equal the values the per-request
counters produced before verdicts were booked once a run (pinned below
by value).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.serve import VirtualClock
from repro.telemetry import JsonlSink, RunReport, TelemetryBus, read_jsonl

from tests.test_serve.test_schedule_golden import (
    _fifo_faults_server,
    _three_tenant_server,
)
from tests.test_serve.test_server import VERDICT_COUNTERS

#: ``RunReport.counters`` / ``.tenant_counters`` of each recorded run,
#: taken when every request emitted its own counters.
PINNED = {
    "three_tenants": (
        {
            "serve.cache_hit": 530.0,
            "serve.cache_miss": 647.0,
            "serve.rejected": 122.0,
            "serve.scale_down": 4.0,
            "serve.scale_up": 5.0,
            "serve.served": 1174.0,
            "serve.submitted": 1299.0,
            "serve.timeout": 3.0,
        },
        {
            "batch": {
                "serve.cache_hit": 13.0,
                "serve.cache_miss": 94.0,
                "serve.served": 107.0,
                "serve.submitted": 107.0,
            },
            "free": {
                "serve.cache_hit": 148.0,
                "serve.cache_miss": 225.0,
                "serve.rejected": 122.0,
                "serve.served": 370.0,
                "serve.submitted": 495.0,
                "serve.timeout": 3.0,
            },
            "prod": {
                "serve.cache_hit": 369.0,
                "serve.cache_miss": 328.0,
                "serve.served": 697.0,
                "serve.submitted": 697.0,
            },
        },
    ),
    "fifo_faults": (
        {
            "serve.cache_hit": 97.0,
            "serve.cache_miss": 349.0,
            "serve.rejected": 49.0,
            "serve.replica_fault": 8.0,
            "serve.requeued": 17.0,
            "serve.served": 374.0,
            "serve.submitted": 446.0,
            "serve.timeout": 23.0,
        },
        {
            "solo": {
                "serve.cache_hit": 97.0,
                "serve.cache_miss": 349.0,
                "serve.rejected": 49.0,
                "serve.requeued": 17.0,
                "serve.served": 374.0,
                "serve.submitted": 446.0,
                "serve.timeout": 23.0,
            }
        },
    ),
}

SCENARIOS = {"three_tenants": _three_tenant_server, "fifo_faults": _fifo_faults_server}


def _recorded(name, tmp_path):
    """Run one scenario through a JSONL sink; the server, its responses
    and the stream as read back from disk."""
    clock = VirtualClock()
    path = tmp_path / f"{name}.jsonl"
    bus = TelemetryBus(JsonlSink(path), clock=clock.now)
    server, events = SCENARIOS[name](telemetry=bus, clock=clock)
    responses = server.run_traffic(events)
    bus.close()
    return server, responses, read_jsonl(path)


def _from_stream(stream) -> Counter:
    """``(tenant, cell) -> count`` from the stream's verdict counters;
    a cell is the name's last part plus its ``reason`` / ``where``."""
    out = Counter()
    for e in stream:
        if e.kind == "counter" and e.name in VERDICT_COUNTERS:
            detail = e.attrs.get("reason") or e.attrs.get("where")
            cell = e.name.split(".")[1] + (f":{detail}" if detail else "")
            out[e.attrs.get("tenant", ""), cell] += int(e.value)
    return out


def _from_responses(responses, cached: bool) -> Counter:
    """The same cells, read off the responses."""
    out = Counter()
    for r in responses:
        out[r.tenant, "submitted"] += 1
        if r.cache_hit:
            out[r.tenant, "cache_hit"] += 1
        elif cached and r.reason != "rate_limited":
            out[r.tenant, "cache_miss"] += 1
        if r.status == "ok":
            out[r.tenant, "served"] += 1
        elif r.status == "timeout":
            where = "queued" if r.batch_id is None else "inflight"
            out[r.tenant, f"timeout:{where}"] += 1
        else:
            out[r.tenant, f"rejected:{r.reason}"] += 1
    return out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_stream_alone_restates_the_ledger_and_the_responses(name, tmp_path):
    server, responses, stream = _recorded(name, tmp_path)
    cells = _from_stream(stream)
    assert cells == _from_responses(responses, server.cache is not None)

    def total(prefix, tenant=None):
        return sum(
            n for (t, cell), n in cells.items()
            if cell.startswith(prefix) and tenant in (None, t)
        )

    s = server.stats
    assert s.reconciles()
    for tenant, counts in s.tenants.items():
        assert counts.to_json() == {
            "submitted": total("submitted", tenant),
            "served": total("served", tenant),
            "rejected": total("rejected", tenant),
            "timed_out": total("timeout", tenant),
        }
    for reason in ("queue_full", "replica_failure", "rate_limited"):
        assert total(f"rejected:{reason}") == getattr(s, f"rejected_{reason}")
    assert (total("cache_hit"), total("cache_miss")) == (s.cache_hits, s.cache_misses)
    # Every verdict kind the scenarios exist for shows up.
    assert total("timeout") and total("rejected") and total("cache_hit")

    report = RunReport.from_events(stream)
    assert (report.counters, report.tenant_counters) == PINNED[name]
