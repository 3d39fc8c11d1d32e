"""Benchmark: measured hot-path performance of the NumPy substrate.

Times the fused kernels against the naive reference oracle
(:mod:`repro.models.reference`) in interleaved pairs and writes the
machine-readable artifact ``BENCH_hotpath.json`` whose own gate block
``benchmarks/check_regression.py`` reads. Every number here is a ratio
taken on this host: whole training steps in img/s are
``benchmarks/e2e``'s ``train_dense``, judged against a parent run on
the same machine rather than against a committed figure from another.

Gates asserted here:

- fused attention forward+backward is >= 1.3x the naive implementation
  at the ViT-Tiny proxy shape (W=192, H=3, N=17 tokens, B=8);
- fused and naive kernels agree numerically (atol=1e-6; observed
  ~1e-15 — same math, different evaluation order).

Run directly (``python benchmarks/bench_hotpath.py``) or through pytest.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

# One BLAS thread unless the caller chose otherwise, as in
# bench_multicore.py: unpinned, OpenBLAS oversubscribes a small host and
# the kernel timings swing with it. Must precede the NumPy import, which
# sizes the pool when it loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

try:  # a sibling module when run as a script, a package module under pytest
    from bench_multicore import host_record
except ImportError:
    from benchmarks.bench_multicore import host_record

from repro.models import Workspace
from repro.models import functional as F
from repro.models import reference as R
from repro.models.attention import MultiHeadSelfAttention
from repro.perf.hotpath import time_pair

OUT_PATH = Path(__file__).resolve().parent / "BENCH_hotpath.json"

#: ViT-Tiny width/heads at the proxy token count (img 32 / patch 8 -> 17
#: tokens with cls): the shape the speedup gate is defined on.
GATE_SHAPE = dict(b=8, n=17, width=192, heads=3)
GATE_THRESHOLD = 1.3


# -- attention: fused vs naive -------------------------------------------------


def _attention_pair(b: int, n: int, width: int, heads: int):
    """Two identically-initialized attentions + one fwd/bwd closure each."""
    fused = MultiHeadSelfAttention(width, heads, rng=np.random.default_rng(1))
    naive = MultiHeadSelfAttention(
        width, heads, rng=np.random.default_rng(1), fused=False
    )
    fused.use_workspace(Workspace())
    rng = np.random.default_rng(2)
    x = rng.standard_normal((b, n, width))
    dout = rng.standard_normal((b, n, width))

    def run_fused():
        fused.zero_grad()
        fused(x)
        return fused.backward(dout)

    def run_naive():
        naive.zero_grad()
        naive(x)
        return naive.backward(dout)

    return fused, naive, run_fused, run_naive


def _check_attention_equivalence(fused, naive, run_fused, run_naive) -> float:
    """Assert fused == naive (outputs, input grads, param grads); return max |diff|."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 9, fused.width))
    dout = rng.standard_normal((4, 9, fused.width))
    fused.zero_grad()
    naive.zero_grad()
    yf = fused(x).copy()
    dxf = fused.backward(dout).copy()
    yn = naive(x)
    dxn = naive.backward(dout)
    worst = 0.0
    for got, want in [(yf, yn), (dxf, dxn)]:
        np.testing.assert_allclose(got, want, atol=1e-6, rtol=0)
        worst = max(worst, float(np.abs(got - want).max()))
    for (name, pf), (_, pn) in zip(
        fused.named_parameters(), naive.named_parameters()
    ):
        np.testing.assert_allclose(pf.grad, pn.grad, atol=1e-6, rtol=0, err_msg=name)
        worst = max(worst, float(np.abs(pf.grad - pn.grad).max()))
    return worst


# -- elementwise kernels: fused vs reference -----------------------------------


def _kernel_pairs(shape=(8, 64, 192)):
    """(name, naive_fn, fused_fn) closures over preallocated buffers."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal(shape)
    dout = rng.standard_normal(shape)
    gamma = np.ones(shape[-1])
    beta = np.zeros(shape[-1])
    y = np.empty_like(x)
    t = np.empty_like(x)
    xhat = np.empty_like(x)
    scratch = np.empty_like(x)
    _, t_ref = R.gelu(x)
    _, ln_cache = F.layernorm(x, gamma, beta, out=y.copy(), xhat_out=xhat)
    att = rng.standard_normal((8, 3, 64, 64))
    att_sm = R.softmax(att)
    att_out = np.empty_like(att)
    return [
        ("gelu_fwd", lambda: R.gelu(x), lambda: F.gelu(x, out=y, t_out=t)),
        (
            "gelu_bwd",
            lambda: R.gelu_backward(dout, x, t_ref),
            lambda: F.gelu_backward(dout, x, t_ref, out=y, scratch=scratch),
        ),
        (
            "layernorm_fwd",
            lambda: R.layernorm(x, gamma, beta),
            lambda: F.layernorm(x, gamma, beta, out=y, xhat_out=xhat),
        ),
        (
            "layernorm_bwd",
            lambda: R.layernorm_backward(dout, gamma, ln_cache),
            lambda: F.layernorm_backward(
                dout, gamma, ln_cache, out=y, scratch=scratch
            ),
        ),
        (
            "softmax_fwd",
            lambda: R.softmax(att),
            lambda: F.softmax(att, out=att_out),
        ),
        (
            "softmax_bwd",
            lambda: R.softmax_backward(att, att_sm),
            lambda: F.softmax_backward(att, att_sm, out=att_out),
        ),
    ]


# -- driver --------------------------------------------------------------------


def run_hotpath() -> dict:
    """Run the full suite; returns the JSON-ready result dict."""
    fused, naive, run_fused, run_naive = _attention_pair(**GATE_SHAPE)
    max_diff = _check_attention_equivalence(fused, naive, run_fused, run_naive)
    attn = time_pair(
        run_naive,
        run_fused,
        name_a="attention_naive",
        name_b="attention_fused",
        warmup=3,
        repeats=15,
        number=10,
    )
    kernels = {}
    for kname, naive_fn, fused_fn in _kernel_pairs():
        kernels[kname] = time_pair(
            naive_fn,
            fused_fn,
            name_a=f"{kname}_naive",
            name_b=f"{kname}_fused",
            warmup=3,
            repeats=11,
            number=20,
        ).to_dict()
    return {
        "schema": 1,
        "host": host_record(),
        "gate": {
            "shape": GATE_SHAPE,
            "threshold": GATE_THRESHOLD,
            "attention_speedup_median": attn.median_ratio,
            "attention_speedup_min": attn.min_ratio,
            "equivalence_max_abs_diff": max_diff,
        },
        "attention": attn.to_dict(),
        "kernels": kernels,
    }


def render_hotpath(result: dict) -> str:
    """Human-readable report of one run."""
    lines = []
    g = result["gate"]
    lines.append(
        f"attention fwd+bwd speedup (fused vs naive, W={g['shape']['width']}, "
        f"N={g['shape']['n']}): median {g['attention_speedup_median']:.2f}x, "
        f"min {g['attention_speedup_min']:.2f}x (gate >= {g['threshold']}x)"
    )
    lines.append(f"fused-vs-naive max |diff|: {g['equivalence_max_abs_diff']:.2e}")
    lines.append("")
    lines.append(f"{'kernel':<16} {'naive us':>10} {'fused us':>10} {'speedup':>8}")
    for name, k in result["kernels"].items():
        lines.append(
            f"{name:<16} {k['a']['median_us']:>10.1f} {k['b']['median_us']:>10.1f} "
            f"{k['median_ratio']:>7.2f}x"
        )
    return "\n".join(lines)


def _write(result: dict) -> None:
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")


def _assert_gates(result: dict) -> None:
    g = result["gate"]
    assert g["equivalence_max_abs_diff"] < 1e-6
    assert g["attention_speedup_median"] >= g["threshold"], (
        f"fused attention {g['attention_speedup_median']:.2f}x < "
        f"{g['threshold']}x gate"
    )


def test_hotpath(benchmark):
    result = benchmark.pedantic(run_hotpath, rounds=1, iterations=1)
    from benchmarks.conftest import emit

    emit("Hot path", render_hotpath(result))
    _write(result)
    _assert_gates(result)


if __name__ == "__main__":
    res = run_hotpath()
    print(render_hotpath(res))
    _write(res)
    _assert_gates(res)
    print(f"\nwrote {OUT_PATH}")
