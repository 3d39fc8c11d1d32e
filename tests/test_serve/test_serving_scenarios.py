"""Two serving scenarios pinned by value on the virtual clock.

Paced latency (seeded arrivals at 70 % of the cost-model capacity of one
and of four replicas) and a repeat-heavy cache workload. Both are pure
functions of (workload, configuration), so every number below is exact
on any host: a moved value is a changed schedule, not noise. The
wall-clock saturation gate stays in ``benchmarks/bench_serving.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import get_mae_config
from repro.hardware.gpu import GpuSpec
from repro.models import MaskedAutoencoder
from repro.serve import FixedServiceModel, InferenceServer, ServiceTimeModel, latency_stats

MODEL = "proxy-huge"
BATCH = 16
N_IMAGES = 128

LATENCY_REQUESTS = 96
LATENCY_UTILIZATION = 0.7
LATENCY_REPLICAS = (1, 4)

CACHE_REQUESTS = 240
CACHE_WORKING_SET = 16

LATENCY_PINS = {
    "1": {
        "n_ok": 96,
        "p50_ms": 0.16008305412147722,
        "p99_ms": 0.21956941697489502,
        "mean_ms": 0.16283806258790667,
        "max_ms": 0.21956941697489502,
        "replicas": 1,
        "offered_images_per_s": 95645.68090490048,
        "mean_batch": 9.6,
    },
    "4": {
        "n_ok": 96,
        "p50_ms": 0.15356342800400172,
        "p99_ms": 0.20790310609059273,
        "mean_ms": 0.14836151220054616,
        "max_ms": 0.20790310609059273,
        "replicas": 4,
        "offered_images_per_s": 382582.7236196019,
        "mean_batch": 7.384615384615385,
    },
    "utilization": 0.7,
    "service_s_per_batch": 0.00011709885793103448,
}

CACHE_PINS = {
    "requests": 240,
    "working_set": 16,
    "hits": 224,
    "misses": 16,
    "hit_rate": 0.9333333333333333,
    "encoded_images": 16,
}


@pytest.fixture(scope="module")
def model_and_images():
    cfg = get_mae_config(MODEL)
    model = MaskedAutoencoder(cfg, rng=np.random.default_rng(0))
    enc = cfg.encoder
    images = np.random.default_rng(1).standard_normal(
        (N_IMAGES, enc.in_chans, enc.img_size, enc.img_size)
    )
    return model, images


def _latency(model, images) -> dict:
    """Virtual-time p50/p99 at fixed utilization, per replica count."""
    enc = model.cfg.encoder
    gpu = GpuSpec()
    svc = ServiceTimeModel(enc, gpu)
    capacity_1 = BATCH / svc.estimate(BATCH)  # img/s, one replica
    out = {}
    for n_rep in LATENCY_REPLICAS:
        rate = LATENCY_UTILIZATION * capacity_1 * n_rep
        gaps = np.random.default_rng(7).exponential(1.0 / rate, LATENCY_REQUESTS)
        arrivals = np.cumsum(gaps)
        server = InferenceServer(
            model,
            services=[ServiceTimeModel(enc, gpu)] * n_rep,
            max_batch_size=BATCH,
            max_wait_s=2.0 / rate,  # wait ~2 mean inter-arrivals to batch up
            queue_capacity=4 * BATCH,
        )
        responses = server.run(
            [(float(arrivals[i]), images[i % len(images)]) for i in range(LATENCY_REQUESTS)]
        )
        assert server.stats.reconciles()
        stats = latency_stats(responses)
        stats["replicas"] = n_rep
        stats["offered_images_per_s"] = rate
        stats["mean_batch"] = (
            server.stats.batched_images / server.stats.batches
            if server.stats.batches
            else 0.0
        )
        out[str(n_rep)] = stats
    out["utilization"] = LATENCY_UTILIZATION
    out["service_s_per_batch"] = svc.estimate(BATCH)
    return out


def _cache(model, images) -> dict:
    """Repeat-heavy traffic over CACHE_WORKING_SET distinct images."""
    picks = np.random.default_rng(11).integers(0, CACHE_WORKING_SET, CACHE_REQUESTS)
    server = InferenceServer(
        model,
        services=[FixedServiceModel(2000.0)],
        max_batch_size=BATCH,
        max_wait_s=0.001,
        queue_capacity=CACHE_REQUESTS,
        cache_capacity=CACHE_WORKING_SET,
    )
    # Spaced past the service time so completions populate the cache
    # before the next repeat arrives.
    responses = server.run(
        [(i * 0.02, images[picks[i]]) for i in range(CACHE_REQUESTS)]
    )
    assert all(r.status == "ok" for r in responses)
    s = server.stats
    assert s.reconciles()
    return {
        "requests": CACHE_REQUESTS,
        "working_set": CACHE_WORKING_SET,
        "hits": s.cache_hits,
        "misses": s.cache_misses,
        "hit_rate": s.cache_hits / max(1, s.cache_hits + s.cache_misses),
        "encoded_images": s.batched_images,
    }


def test_paced_latency_is_pinned(model_and_images):
    lat = _latency(*model_and_images)
    assert lat == LATENCY_PINS
    for n_rep in LATENCY_REPLICAS:
        s = lat[str(n_rep)]
        assert s["n_ok"] == LATENCY_REQUESTS
        assert 0 < s["p50_ms"] <= s["p99_ms"]
    # More replicas at fixed utilization must not raise the tail.
    assert (
        lat[str(LATENCY_REPLICAS[-1])]["p99_ms"]
        <= lat[str(LATENCY_REPLICAS[0])]["p99_ms"] * 4.0
    )


def test_cache_hit_rate_is_pinned(model_and_images):
    c = _cache(*model_and_images)
    assert c == CACHE_PINS
    assert c["hit_rate"] > 0.5
    assert c["encoded_images"] < c["requests"]
