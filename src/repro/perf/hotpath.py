"""Real-time microbenchmark harness for the NumPy hot path.

Unlike the rest of :mod:`repro.perf` — which *models* Frontier-scale
performance analytically — this module measures the substrate itself:
wall-clock per kernel, and one kernel against another. It is the
measurement side of the fused-kernel work in
:mod:`repro.models.functional` / :mod:`repro.models.layers` /
:mod:`repro.models.attention`; ``benchmarks/bench_hotpath.py`` drives it
and ``benchmarks/check_regression.py`` gates on its machine-relative
output. Whole training steps are timed by ``benchmarks/e2e``
(``train_dense``), not here.

Methodology notes (the host running CI is small and shared):

- every sample is the mean of ``number`` back-to-back calls, measured
  with ``perf_counter``; we report the **median** of ``repeats`` samples
  (robust to scheduler noise) plus min/max;
- A/B comparisons use :func:`time_pair`, which *interleaves* the two
  sides sample-by-sample and reports the median of per-pair ratios, so
  slow drift in machine load cancels instead of biasing one side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "KernelTiming",
    "PairTiming",
    "time_kernel",
    "time_pair",
]


@dataclass
class KernelTiming:
    """Timing summary for one kernel."""

    name: str
    median_us: float
    min_us: float
    max_us: float
    repeats: int
    number: int
    samples_us: list[float] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (samples included for offline analysis)."""
        return {
            "name": self.name,
            "median_us": self.median_us,
            "min_us": self.min_us,
            "max_us": self.max_us,
            "repeats": self.repeats,
            "number": self.number,
            "samples_us": self.samples_us,
        }


def _median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def _sample_us(fn: Callable[[], Any], number: int) -> float:
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - t0) / number * 1e6


def time_kernel(
    fn: Callable[[], Any],
    name: str = "kernel",
    warmup: int = 2,
    repeats: int = 9,
    number: int = 1,
) -> KernelTiming:
    """Time ``fn`` (no arguments): median of ``repeats`` samples.

    Each sample averages ``number`` consecutive calls; ``warmup`` calls
    run first (JIT-less NumPy still benefits — page faults, caches,
    lazy BLAS thread pools all warm up).
    """
    if repeats < 1 or number < 1:
        raise ValueError("repeats and number must be >= 1")
    for _ in range(warmup):
        fn()
    samples = [_sample_us(fn, number) for _ in range(repeats)]
    return KernelTiming(
        name=name,
        median_us=_median(samples),
        min_us=min(samples),
        max_us=max(samples),
        repeats=repeats,
        number=number,
        samples_us=samples,
    )


@dataclass
class PairTiming:
    """Interleaved A/B comparison. Ratio > 1 means B is faster."""

    a: KernelTiming
    b: KernelTiming
    median_ratio: float  # median over per-pair (a_i / b_i)
    min_ratio: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary of both sides and the ratio stats."""
        return {
            "a": self.a.to_dict(),
            "b": self.b.to_dict(),
            "median_ratio": self.median_ratio,
            "min_ratio": self.min_ratio,
        }


def time_pair(
    fn_a: Callable[[], Any],
    fn_b: Callable[[], Any],
    name_a: str = "a",
    name_b: str = "b",
    warmup: int = 2,
    repeats: int = 9,
    number: int = 1,
) -> PairTiming:
    """Interleaved A/B timing: a,b,a,b,... with per-pair speedup ratios.

    On a noisy shared host, timing all of A then all of B lets a load
    spike land entirely on one side; interleaving makes each ratio a
    same-instant comparison, and the median ratio is robust to the rest.
    """
    if repeats < 1 or number < 1:
        raise ValueError("repeats and number must be >= 1")
    for _ in range(warmup):
        fn_a()
        fn_b()
    samples_a: list[float] = []
    samples_b: list[float] = []
    for _ in range(repeats):
        samples_a.append(_sample_us(fn_a, number))
        samples_b.append(_sample_us(fn_b, number))
    ratios = [a / b for a, b in zip(samples_a, samples_b)]

    def _summary(name: str, samples: list[float]) -> KernelTiming:
        return KernelTiming(
            name=name,
            median_us=_median(samples),
            min_us=min(samples),
            max_us=max(samples),
            repeats=repeats,
            number=number,
            samples_us=samples,
        )

    return PairTiming(
        a=_summary(name_a, samples_a),
        b=_summary(name_b, samples_b),
        median_ratio=_median(ratios),
        min_ratio=min(ratios),
    )
