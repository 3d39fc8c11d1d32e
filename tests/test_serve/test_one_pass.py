"""Oracle pins for the serving hot path's one-pass rewrites.

Each rewritten piece is held against the formula it replaced, by value:
the encoder against the ``np.stack`` of its four reductions (the
conftest stub), the autoscaler's p99 against ``np.percentile``, the SFQ
head lane against the tuple-key minimum, the generator's image picks
against one scalar draw per event, and the per-run digest memo against
a count of the hashes it saves.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.server as server_mod
from repro.experiments.traffic_exp import tenant_traffics
from repro.serve import (
    Autoscaler,
    AutoscalePolicy,
    FairRequestQueue,
    FixedServiceModel,
    InferenceServer,
    Request,
    SyntheticEncoder,
    TenantSpec,
    TrafficEvent,
    generate_workload,
)
from repro.serve.traffic import _tenant_arrivals

from tests.test_serve.conftest import StubEncoder, stub_images


# -- SyntheticEncoder -----------------------------------------------------------


@pytest.mark.parametrize(
    "dtype", [np.float64, np.float32, np.float16, np.int64, np.int32, np.uint8, bool]
)
@pytest.mark.parametrize("batch", range(1, 9))
def test_encoder_equals_the_stacked_reductions_bit_for_bit(dtype, batch):
    rng = np.random.default_rng(batch)
    for shape in [(1, 2, 2), (3, 5, 7)]:
        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            images = rng.integers(info.min, info.max, (batch, *shape), dtype=dtype)
        else:
            images = (rng.standard_normal((batch, *shape)) * 100).astype(dtype)
        want = StubEncoder().encode_features(images)
        got = SyntheticEncoder().encode_features(images)
        assert got.dtype == want.dtype and got.shape == want.shape == (batch, 4)
        assert got.tobytes() == want.tobytes()


def test_encoder_sums_integers_exactly_past_float64_precision():
    # Accumulating in float64 would lose the two trailing ones.
    images = np.array([[[[2**53, 1, 1]]]], dtype=np.int64)
    got = SyntheticEncoder().encode_features(images)
    assert got.tobytes() == StubEncoder().encode_features(images).tobytes()
    assert got[0, 0] == float(2**53 + 2)


# -- Autoscaler.window_p99_s ---------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.sampled_from([0.0, 0.001, 0.02, 0.02, 0.25, 0.3, 1.5, 7.0]),
        min_size=1,
        max_size=64,
    )
)
def test_window_p99_is_the_element_percentile_higher_returns(latencies):
    scaler = Autoscaler(
        AutoscalePolicy(window=64), lambda: FixedServiceModel(1.0)
    )
    for x in latencies:
        scaler.observe(x)
    want = float(np.percentile(np.array(latencies), 99, method="higher"))
    assert scaler.window_p99_s() == want


def test_window_p99_past_a_hundred_samples_is_not_the_max():
    scaler = Autoscaler(AutoscalePolicy(window=201), lambda: FixedServiceModel(1.0))
    for x in range(201):
        scaler.observe(float(x))
    assert scaler.window_p99_s() == 198.0 == np.percentile(
        np.arange(201.0), 99, method="higher"
    )


# -- FairRequestQueue head lane --------------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_head_lane_is_the_tuple_key_minimum(ops):
    specs = [
        TenantSpec("a", weight=1.0, priority=0),
        TenantSpec("b", weight=2.0, priority=0),
        TenantSpec("c", weight=1.0, priority=1),
        TenantSpec("d", weight=0.5, priority=1),
    ]
    queue = FairRequestQueue(64, specs)
    image = stub_images(1)[0]
    for req_id, (tenant, pop) in enumerate(ops):
        if pop and len(queue):
            lanes = [lane for lane in queue._lanes.values() if lane.items]
            want = min(
                lanes,
                key=lambda ln: (ln.spec.priority, ln.items[0][0], ln.items[0][1].req_id),
            )
            assert queue._head_lane() is want
            queue.pop()
        else:
            queue.push(Request(req_id, image, 0.0, tenant=tenant))


# -- generate_workload ----------------------------------------------------------


def _scalar_draws_workload(traffics, horizon_s, seed, start_s=0.0):
    """The generator as it was written before its picks were drawn in one
    call: one ``rng.integers`` per event, a key-lambda sort."""
    children = np.random.default_rng(seed).spawn(len(traffics))
    events = []
    for ti, (traffic, rng) in enumerate(zip(traffics, children)):
        rows = list(rng.standard_normal((traffic.working_set, *traffic.image_shape)))
        for si, t in enumerate(_tenant_arrivals(traffic, horizon_s, rng)):
            image = rows[int(rng.integers(traffic.working_set))]
            deadline = (
                start_s + t + traffic.deadline_s
                if traffic.deadline_s is not None
                else None
            )
            events.append(
                (start_s + t, ti, si, TrafficEvent(start_s + t, traffic.spec.name, image, deadline))
            )
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    return [e[3] for e in events]


@pytest.mark.parametrize("seed", [0, 17, 12345])
@pytest.mark.parametrize("start_s", [0.0, 2.5])
def test_generator_matches_one_scalar_draw_per_event(seed, start_s):
    traffics = tenant_traffics()
    got = generate_workload(traffics, 4.0, seed, start_s=start_s)
    want = _scalar_draws_workload(traffics, 4.0, seed, start_s=start_s)
    assert len(got) == len(want) > 100
    for g, w in zip(got, want):
        assert (g.t_s, g.tenant, g.deadline_s) == (w.t_s, w.tenant, w.deadline_s)
        assert g.image.tobytes() == w.image.tobytes()


# -- the per-run digest memo ----------------------------------------------------


@pytest.fixture
def counted_digests(monkeypatch):
    calls: list[int] = []
    real = server_mod.image_digest

    def counting(image):
        calls.append(id(image))
        return real(image)

    monkeypatch.setattr(server_mod, "image_digest", counting)
    return calls


def _cached_server():
    return InferenceServer(
        StubEncoder(),
        services=[FixedServiceModel(100.0)],
        max_batch_size=4,
        max_wait_s=0.001,
        cache_capacity=8,
    )


def test_each_distinct_image_is_hashed_once_per_run(counted_digests):
    server = _cached_server()
    imgs = list(stub_images(3))
    workload = [(i * 0.01, imgs[i % 3]) for i in range(30)]
    responses = server.run(workload)
    assert sorted(counted_digests) == sorted(id(x) for x in imgs)
    # The memo changes no key: everything after each image's first
    # completion hits, as it would with a hash per request.
    assert sum(r.cache_hit for r in responses) == server.stats.cache_hits > 20
    # A second run hashes again: the memo lives one run.
    server.run([(1.0 + i * 0.01, imgs[i % 3]) for i in range(6)])
    assert len(counted_digests) == 6


def test_an_image_mutated_between_runs_misses_the_cache(counted_digests):
    server = _cached_server()
    img = stub_images(1)[0].copy()
    [first] = server.run([(0.0, img)])
    [again] = server.run([(1.0, img)])
    assert not first.cache_hit and again.cache_hit
    img += 1.0
    [mutated] = server.run([(2.0, img)])
    assert not mutated.cache_hit
    np.testing.assert_array_equal(
        mutated.features, StubEncoder().encode_features(img[None])[0]
    )
    assert len(counted_digests) == 3


def test_submit_hashes_every_call(counted_digests):
    server = _cached_server()
    img = stub_images(1)[0]
    server.submit(img)
    server.submit(img)
    assert len(counted_digests) == 2


# -- run / run_traffic are one door ---------------------------------------------


def test_run_and_run_traffic_serve_the_same_schedule():
    events = generate_workload(tenant_traffics(), 2.0, 5)
    a = _cached_server().run_traffic(events)
    b = _cached_server().run(
        [(ev.t_s, ev.image, ev.deadline_s, ev.tenant) for ev in events]
    )
    assert [(r.req_id, r.status, r.done_s, r.cache_hit, r.batch_id) for r in a] == [
        (r.req_id, r.status, r.done_s, r.cache_hit, r.batch_id) for r in b
    ]
    assert [r.req_id for r in a] == list(range(len(events)))
