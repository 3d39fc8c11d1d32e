"""What a served request costs in memory: its fields, nothing around them.

The request path's records (``TrafficEvent``, ``Request``, ``Response``
and the server's in-flight batch) are slotted, and every event of a
tenant references one of its ``working_set`` shared image rows instead
of a view of its own. The last test prices one seeded three-tenant
episode in retained bytes per offered request.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.experiments.traffic_exp import HORIZON_S, tenant_traffics
from repro.serve import (
    Request,
    Response,
    TrafficEvent,
    generate_workload,
    run_open_loop,
)
from repro.serve.server import _Inflight
from tests.test_serve.test_schedule_golden import _three_tenant_server

#: Retained bytes per offered request over the seed-7 episode. Measured
#: 611 B on CPython 3.11 (841 B with per-instance dicts and one array
#: view per event); the bound leaves 18 % headroom.
RETAINED_BYTES_PER_REQUEST = 720


def _records():
    image = np.arange(4.0).reshape(1, 2, 2)
    request = Request(3, image, 0.5, deadline_s=1.5, digest="d", tenant="prod")
    return [
        TrafficEvent(0.5, "prod", image, deadline_s=1.5),
        request,
        Response(3, "ok", 0.5, 0.75, features=np.ones(4), replica_id=0, batch_id=2),
        Response(4, "rejected", 0.5, 0.5, reason="rate_limited", tenant="free"),
        _Inflight(0.75, 2, None, [request], dispatch_s=0.5, service_s=0.25),
    ]


def _same_fields(a, b) -> bool:
    """Field-by-field equality, arrays by value."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif isinstance(x, list):
            if len(x) != len(y) or not all(map(_same_fields, x, y)):
                return False
        elif x != y:
            return False
    return True


def test_events_of_a_tenant_share_working_set_rows():
    traffics = tenant_traffics()
    events = generate_workload(traffics, HORIZON_S, seed=7)
    for traffic in traffics:
        mine = [e for e in events if e.tenant == traffic.spec.name]
        assert len(mine) > traffic.working_set
        assert len({id(e.image) for e in mine}) <= traffic.working_set


def test_an_iterator_of_traffics_gives_the_same_workload():
    # The argument is read more than once; a one-shot iterator used to
    # be spent before any tenant was generated.
    want = generate_workload(tenant_traffics(), HORIZON_S, seed=7)
    for given in (iter(tenant_traffics()), (t for t in tenant_traffics())):
        got = generate_workload(given, HORIZON_S, seed=7)
        assert len(got) == len(want) > 0
        assert all(
            (a.t_s, a.tenant, a.deadline_s) == (b.t_s, b.tenant, b.deadline_s)
            and np.array_equal(a.image, b.image)
            for a, b in zip(got, want)
        )
    server, events = _three_tenant_server()
    result = run_open_loop(
        server, iter(tenant_traffics()), HORIZON_S, seed=7, slo_s=0.25
    )
    assert result.offered == len(events)
    assert set(result.attainment_by_tenant) == {"prod", "free", "batch"}


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    assert dataclasses.is_dataclass(record)


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_survive_copy_and_pickle(record):
    shallow = copy.copy(record)
    assert shallow == record and _same_fields(shallow, record)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and _same_fields(back, record)


def test_frozen_records_stay_frozen():
    event, _, response = _records()[:3]
    for frozen in (event, response):
        with pytest.raises(dataclasses.FrozenInstanceError):
            frozen.tenant = "other"


def test_retained_bytes_per_offered_request():
    server, events = _three_tenant_server()
    server.run_traffic(events)  # warm lazy imports and caches
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        server, events = _three_tenant_server()
        responses = server.run_traffic(events)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(responses) == len(events) > 1000
    assert retained / len(events) < RETAINED_BYTES_PER_REQUEST
