"""Benchmark: online serving throughput, latency, and cache behavior.

Drives :class:`repro.serve.InferenceServer` with deterministic load and
writes ``BENCH_serving.json`` for ``benchmarks/check_regression.py``.
Four phases:

- **throughput / saturation gate** — a closed burst (every request
  present at t=0) keeps the batcher forming full batches back to back,
  so serving degenerates to offline inference plus queue bookkeeping.
  Wall-clock images/s of the serving path must reach >=
  ``GATE_THRESHOLD`` x offline :func:`extract_features` at the same
  model, batch size, and replica count (best of ``GATE_REPEATS`` runs,
  same process, same machine).
- **latency under paced load** — seeded arrivals at ~70% of the
  cost-model capacity of each replica set; p50/p99 are *virtual-time*
  quantities (scheduling + modeled service), deterministic and
  machine-independent.
- **cache** — repeat-heavy traffic over a small working set; reports
  the steady-state hit rate.
- **open loop** — the seeded multi-tenant diurnal+flash scenario from
  ``repro.experiments.traffic_exp``, served twice: on the fleet the
  capacity planner priced (then reconciled predicted vs measured
  attainment / cost / utilization) and under the SLO-driven autoscaler.
  All quantities are virtual-time, so these columns are deterministic
  and machine-independent.

Run directly (``python benchmarks/bench_serving.py``) or through pytest.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

# One BLAS thread unless the caller chose otherwise, as in
# bench_multicore.py: unpinned, OpenBLAS oversubscribes a small host and
# the saturation phase read 373-2238 img/s back to back on untouched
# code (2132-2387 pinned). Must precede the NumPy import, which sizes
# the pool when it loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

try:  # a sibling module when run as a script, a package module under pytest
    from bench_multicore import host_record
except ImportError:
    from benchmarks.bench_multicore import host_record

from repro.core.config import get_mae_config
from repro.eval.features import extract_features
from repro.hardware.gpu import GpuSpec
from repro.models import MaskedAutoencoder
from repro.serve import (
    FixedServiceModel,
    InferenceServer,
    ServiceTimeModel,
    latency_stats,
)

OUT_PATH = Path(__file__).resolve().parent / "BENCH_serving.json"

GATE_MODEL = "proxy-huge"
GATE_BATCH = 16
GATE_IMAGES = 128
GATE_REPEATS = 3
GATE_THRESHOLD = 0.9

LATENCY_REQUESTS = 96
LATENCY_UTILIZATION = 0.7
LATENCY_REPLICAS = (1, 4)

CACHE_REQUESTS = 240
CACHE_WORKING_SET = 16


def _model_and_images(n: int):
    cfg = get_mae_config(GATE_MODEL)
    model = MaskedAutoencoder(cfg, rng=np.random.default_rng(0))
    enc = cfg.encoder
    images = np.random.default_rng(1).standard_normal(
        (n, enc.in_chans, enc.img_size, enc.img_size)
    )
    return model, images


# -- phase 1: saturation gate --------------------------------------------------


def _saturation(model, images) -> dict:
    """Best-of-N wall-clock serving/offline throughput ratio."""
    n = len(images)
    extract_features(model, images[:GATE_BATCH], batch_size=GATE_BATCH)  # warmup
    ratios, offline_ips, serving_ips = [], [], []
    for _ in range(GATE_REPEATS):
        t0 = time.perf_counter()
        extract_features(model, images, batch_size=GATE_BATCH)
        offline = n / (time.perf_counter() - t0)

        server = InferenceServer(
            model,
            # Service model fast enough that virtual pacing never stalls
            # the closed burst; wall-clock cost is the real NumPy encode.
            services=[FixedServiceModel(1e6)],
            max_batch_size=GATE_BATCH,
            max_wait_s=0.0,
            queue_capacity=n,
        )
        workload = [(0.0, images[i]) for i in range(n)]
        t0 = time.perf_counter()
        responses = server.run(workload)
        serving = n / (time.perf_counter() - t0)

        assert all(r.status == "ok" for r in responses)
        assert server.stats.reconciles()
        offline_ips.append(offline)
        serving_ips.append(serving)
        ratios.append(serving / offline)
    best = int(np.argmax(ratios))
    return {
        "model": GATE_MODEL,
        "batch_size": GATE_BATCH,
        "n_images": n,
        "repeats": GATE_REPEATS,
        "offline_images_per_s": offline_ips[best],
        "serving_images_per_s": serving_ips[best],
        "saturation_ratio": ratios[best],
        "ratios": ratios,
    }


# -- phase 2: latency under paced load -----------------------------------------


def _latency(model, images) -> dict:
    """Virtual-time p50/p99 at fixed utilization, per replica count."""
    enc = model.cfg.encoder
    gpu = GpuSpec()
    svc = ServiceTimeModel(enc, gpu)
    capacity_1 = GATE_BATCH / svc.estimate(GATE_BATCH)  # img/s, one replica
    out = {}
    for n_rep in LATENCY_REPLICAS:
        rate = LATENCY_UTILIZATION * capacity_1 * n_rep
        gaps = np.random.default_rng(7).exponential(1.0 / rate, LATENCY_REQUESTS)
        arrivals = np.cumsum(gaps)
        server = InferenceServer(
            model,
            services=[ServiceTimeModel(enc, gpu)] * n_rep,
            max_batch_size=GATE_BATCH,
            max_wait_s=2.0 / rate,  # wait ~2 mean inter-arrivals to batch up
            queue_capacity=4 * GATE_BATCH,
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
    out["service_s_per_batch"] = svc.estimate(GATE_BATCH)
    return out


# -- phase 3: cache hit rate ---------------------------------------------------


def _cache(model, images) -> dict:
    """Repeat-heavy traffic over CACHE_WORKING_SET distinct images."""
    rng = np.random.default_rng(11)
    picks = rng.integers(0, CACHE_WORKING_SET, CACHE_REQUESTS)
    server = InferenceServer(
        model,
        services=[FixedServiceModel(2000.0)],
        max_batch_size=GATE_BATCH,
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


# -- phase 4: open-loop traffic, planned fleet, autoscale ----------------------


OPEN_LOOP_COST_TOLERANCE = 0.10


def _open_loop() -> dict:
    """Planned-fleet reconciliation and autoscaled run, all virtual time."""
    from repro.experiments.traffic_exp import (
        SLO_S,
        run_traffic_autoscale,
        run_traffic_plan,
    )

    plan, result, recon = run_traffic_plan()
    auto_result, autoscaler = run_traffic_autoscale()
    return {
        "slo_s": SLO_S,
        "planned": {
            "fleet": plan.describe(),
            "offered": result.offered,
            "served": result.served,
            "rejected": result.rejected,
            "timed_out": result.timed_out,
            "attainment": result.attainment,
            "admitted_attainment": result.admitted_attainment,
            "attainment_target": plan.attainment_target,
            "predicted_cost_per_hour": plan.predicted_cost_per_hour,
            "measured_cost_per_hour": result.measured_cost_per_hour,
            "cost_tolerance": OPEN_LOOP_COST_TOLERANCE,
            "reconciled": recon.reconciled,
            "reconciliation": recon.to_json(),
        },
        "autoscale": {
            "offered": auto_result.offered,
            "attainment": auto_result.attainment,
            "mean_replicas": auto_result.mean_replicas,
            "max_replicas": auto_result.max_replicas,
            "scale_events": auto_result.scale_events,
            "scale_ups": sum(1 for e in autoscaler.events if e.action == "up"),
            "scale_downs": sum(
                1 for e in autoscaler.events if e.action == "down"
            ),
            "measured_cost_usd": auto_result.measured_cost_usd,
        },
    }


# -- driver --------------------------------------------------------------------


def run_serving() -> dict:
    """Run all phases; returns the JSON-ready result dict."""
    model, images = _model_and_images(GATE_IMAGES)
    sat = _saturation(model, images)
    lat = _latency(model, images)
    cache = _cache(model, images)
    open_loop = _open_loop()
    return {
        "schema": 1,
        "host": host_record(),
        "gate": {
            "threshold": GATE_THRESHOLD,
            "saturation_ratio": sat["saturation_ratio"],
            "model": GATE_MODEL,
            "batch_size": GATE_BATCH,
        },
        "throughput": sat,
        "latency": lat,
        "cache": cache,
        "open_loop": open_loop,
    }


def render_serving(result: dict) -> str:
    """Human-readable report of one run."""
    t = result["throughput"]
    lines = [
        f"saturation ({t['model']}, batch {t['batch_size']}, "
        f"{t['n_images']} images): serving {t['serving_images_per_s']:.0f} img/s "
        f"vs offline {t['offline_images_per_s']:.0f} img/s = "
        f"{t['saturation_ratio']:.3f}x (gate >= {result['gate']['threshold']}x)",
        "",
        f"{'replicas':<9} {'offered/s':>10} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'mean batch':>11}",
    ]
    lat = result["latency"]
    for n_rep in LATENCY_REPLICAS:
        s = lat[str(n_rep)]
        lines.append(
            f"{n_rep:<9} {s['offered_images_per_s']:>10.0f} {s['p50_ms']:>8.2f} "
            f"{s['p99_ms']:>8.2f} {s['mean_batch']:>11.1f}"
        )
    c = result["cache"]
    lines.append("")
    lines.append(
        f"cache: {c['hits']}/{c['requests']} hits "
        f"({c['hit_rate']:.1%}) over a working set of {c['working_set']}; "
        f"encoder ran on {c['encoded_images']} images"
    )
    ol = result.get("open_loop")
    if ol:
        p, a = ol["planned"], ol["autoscale"]
        verdict = "reconciled" if p["reconciled"] else "DRIFTED"
        lines.append("")
        lines.append(
            f"open loop (SLO {ol['slo_s'] * 1e3:.0f} ms): planned "
            f"{p['fleet']} served {p['served']}/{p['offered']}, admitted "
            f"attainment {p['admitted_attainment']:.3f} "
            f"(target {p['attainment_target']}), "
            f"{p['measured_cost_per_hour']:.2f} $/h measured vs "
            f"{p['predicted_cost_per_hour']:.2f} predicted -> {verdict}"
        )
        lines.append(
            f"open loop autoscaled: attainment {a['attainment']:.3f}, fleet "
            f"mean {a['mean_replicas']:.2f} / max {a['max_replicas']} "
            f"({a['scale_ups']} ups, {a['scale_downs']} downs), spend "
            f"{a['measured_cost_usd']:.4f} USD"
        )
    return "\n".join(lines)


def _write(result: dict) -> None:
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")


def _assert_gates(result: dict) -> None:
    g = result["gate"]
    assert g["saturation_ratio"] >= g["threshold"], (
        f"serving saturation {g['saturation_ratio']:.3f}x below the "
        f"{g['threshold']}x gate"
    )
    lat = result["latency"]
    for n_rep in LATENCY_REPLICAS:
        s = lat[str(n_rep)]
        assert s["n_ok"] == LATENCY_REQUESTS
        assert 0 < s["p50_ms"] <= s["p99_ms"]
    # More replicas at fixed utilization must not raise the tail.
    assert (
        lat[str(LATENCY_REPLICAS[-1])]["p99_ms"]
        <= lat[str(LATENCY_REPLICAS[0])]["p99_ms"] * 4.0
    )
    c = result["cache"]
    assert c["hit_rate"] > 0.5
    assert c["encoded_images"] < c["requests"]
    p = result["open_loop"]["planned"]
    assert p["reconciled"], "planned fleet failed to reconcile"
    assert p["admitted_attainment"] >= p["attainment_target"]
    a = result["open_loop"]["autoscale"]
    assert a["scale_ups"] > 0 and a["scale_downs"] > 0, (
        "open-loop scenario must exercise both scale directions"
    )
    assert 1.0 <= a["mean_replicas"] <= a["max_replicas"]


def test_serving(benchmark):
    result = benchmark.pedantic(run_serving, rounds=1, iterations=1)
    from benchmarks.conftest import emit

    emit("Serving", render_serving(result))
    _write(result)
    _assert_gates(result)


if __name__ == "__main__":
    res = run_serving()
    print(render_serving(res))
    _write(res)
    _assert_gates(res)
    print(f"\nwrote {OUT_PATH}")
