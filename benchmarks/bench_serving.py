"""Benchmark: online serving throughput against offline inference.

A closed burst (every request present at t=0) keeps the batcher forming
full batches back to back, so serving degenerates to offline inference
plus queue bookkeeping. Wall-clock images/s of the serving path must
reach >= ``GATE_THRESHOLD`` x offline :func:`extract_features` at the
same model, batch size and replica count (best of ``GATE_REPEATS``
runs, same process, same machine). The ratio is taken inside one run,
so it is judged on any host without a committed baseline.

The virtual-time serving scenarios (paced latency, cache hit rate) are
pinned by value in ``tests/test_serve/test_serving_scenarios.py``; the
open-loop plan and autoscaler are the ``traffic`` row of
``python -m repro.experiments``.

Run directly (``python benchmarks/bench_serving.py``: prints the report
and the host, exits 1 when the gate fails) or through pytest.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS thread unless the caller chose otherwise, as in
# bench_multicore.py: unpinned, OpenBLAS oversubscribes a small host and
# the saturation phase read 373-2238 img/s back to back on untouched
# code (2132-2387 pinned). Must precede the NumPy import, which sizes
# the pool when it loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

try:  # a sibling module when run as a script, a package module under pytest
    from bench_multicore import host_record, render_host
except ImportError:
    from benchmarks.bench_multicore import host_record, render_host

from repro.core.config import get_mae_config
from repro.eval.features import extract_features
from repro.models import MaskedAutoencoder
from repro.serve import FixedServiceModel, InferenceServer

GATE_MODEL = "proxy-huge"
GATE_BATCH = 16
GATE_IMAGES = 128
GATE_REPEATS = 3
GATE_THRESHOLD = 0.9


def _model_and_images(n: int):
    cfg = get_mae_config(GATE_MODEL)
    model = MaskedAutoencoder(cfg, rng=np.random.default_rng(0))
    enc = cfg.encoder
    images = np.random.default_rng(1).standard_normal(
        (n, enc.in_chans, enc.img_size, enc.img_size)
    )
    return model, images


def run_serving() -> dict:
    """Best-of-N wall-clock serving/offline throughput ratio."""
    model, images = _model_and_images(GATE_IMAGES)
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
        "host": host_record(),
        "model": GATE_MODEL,
        "batch_size": GATE_BATCH,
        "n_images": n,
        "offline_images_per_s": offline_ips[best],
        "serving_images_per_s": serving_ips[best],
        "saturation_ratio": ratios[best],
    }


def render_serving(result: dict) -> str:
    """Human-readable report of one run."""
    return (
        f"saturation ({result['model']}, batch {result['batch_size']}, "
        f"{result['n_images']} images): serving "
        f"{result['serving_images_per_s']:.0f} img/s vs offline "
        f"{result['offline_images_per_s']:.0f} img/s = "
        f"{result['saturation_ratio']:.3f}x (gate >= {GATE_THRESHOLD}x)\n"
        + render_host(result["host"])
    )


def gate_failures(result: dict) -> list[str]:
    """The saturation gate's verdict: empty when it holds."""
    ratio = result["saturation_ratio"]
    if ratio >= GATE_THRESHOLD:
        return []
    return [f"serving saturation {ratio:.3f}x below the {GATE_THRESHOLD}x gate"]


def test_serving(benchmark):
    result = benchmark.pedantic(run_serving, rounds=1, iterations=1)
    from benchmarks.conftest import emit

    emit("Serving", render_serving(result))
    assert gate_failures(result) == []


if __name__ == "__main__":
    res = run_serving()
    print(render_serving(res))
    failures = gate_failures(res)
    for line in failures:
        print(f"GATE FAILED: {line}")
    sys.exit(1 if failures else 0)
