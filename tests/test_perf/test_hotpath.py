"""Unit tests for the real-time microbenchmark harness."""

from __future__ import annotations

import time

import pytest

from repro.perf.hotpath import KernelTiming, time_kernel, time_pair


class TestTimeKernel:
    def test_counts_calls(self):
        calls = []
        t = time_kernel(lambda: calls.append(1), warmup=2, repeats=3, number=4)
        assert len(calls) == 2 + 3 * 4
        assert t.repeats == 3 and t.number == 4
        assert len(t.samples_us) == 3

    def test_median_and_bounds(self):
        t = time_kernel(lambda: None, warmup=0, repeats=5)
        assert t.min_us <= t.median_us <= t.max_us
        assert t.min_us >= 0.0

    def test_measures_real_time(self):
        t = time_kernel(lambda: time.sleep(0.002), warmup=0, repeats=3)
        assert t.median_us > 1000.0  # slept 2 ms

    def test_validates_args(self):
        with pytest.raises(ValueError):
            time_kernel(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            time_kernel(lambda: None, number=0)

    def test_to_dict_roundtrips(self):
        t = time_kernel(lambda: None, warmup=0, repeats=3, number=2)
        d = t.to_dict()
        assert d["name"] == "kernel"
        assert d["median_us"] == t.median_us
        assert isinstance(d["samples_us"], list)


class TestTimePair:
    def test_slower_side_has_higher_ratio(self):
        # a sleeps ~2 ms, b returns immediately: ratio = a/b >> 1.
        pair = time_pair(
            lambda: time.sleep(0.002), lambda: None, warmup=0, repeats=3
        )
        assert pair.median_ratio > 10.0
        assert pair.min_ratio <= pair.median_ratio

    def test_interleaved_call_counts(self):
        calls = {"a": 0, "b": 0}

        def fa():
            calls["a"] += 1

        def fb():
            calls["b"] += 1

        pair = time_pair(fa, fb, warmup=1, repeats=4, number=3)
        assert calls["a"] == calls["b"] == 1 + 4 * 3
        assert isinstance(pair.a, KernelTiming)
        assert pair.a.name == "a" and pair.b.name == "b"

    def test_to_dict(self):
        pair = time_pair(lambda: None, lambda: None, warmup=0, repeats=3)
        d = pair.to_dict()
        assert set(d) == {"a", "b", "median_ratio", "min_ratio"}
