"""Tests for RNG management and unit formatting."""

import numpy as np
import pytest

from repro.utils import GIB, KIB, MIB
from tests.test_utils.rng import RngPool, spawn_rng


def format_bytes(n: float) -> str:
    """Format a byte count using binary units (matches GPU memory reporting)."""
    n = float(n)
    for unit, div in (("GiB", GIB), ("MiB", MIB), ("KiB", KIB)):
        if abs(n) >= div:
            return f"{n / div:.2f} {unit}"
    return f"{n:.0f} B"


def format_count(n: float) -> str:
    """Format a large count, e.g. parameter totals (3.07e9 -> '3.07B')."""
    n = float(n)
    if abs(n) >= 1e9:
        return f"{n / 1e9:.2f}B"
    if abs(n) >= 1e6:
        return f"{n / 1e6:.2f}M"
    if abs(n) >= 1e3:
        return f"{n / 1e3:.0f}K"
    return f"{n:.0f}"


def format_time(seconds: float) -> str:
    """Format a duration in the most readable unit."""
    s = float(seconds)
    if abs(s) >= 1.0:
        return f"{s:.3f} s"
    if abs(s) >= 1e-3:
        return f"{s * 1e3:.3f} ms"
    return f"{s * 1e6:.1f} us"


class TestSpawnRng:
    def test_streams_are_independent_and_deterministic(self):
        a1, b1 = spawn_rng(42, 2)
        a2, b2 = spawn_rng(42, 2)
        assert np.array_equal(a1.random(5), a2.random(5))
        assert not np.array_equal(a1.random(5), b1.random(5))
        del b2

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rng(1, -1)


class TestRngPool:
    def test_named_streams_stable(self):
        pool = RngPool(7)
        x = pool.get("weights").random(4)
        y = RngPool(7).get("weights").random(4)
        assert np.array_equal(x, y)

    def test_streams_differ_by_name(self):
        pool = RngPool(7)
        assert not np.array_equal(
            pool.get("a").random(8), pool.get("b").random(8)
        )

    def test_same_name_returns_same_generator(self):
        pool = RngPool(0)
        assert pool.get("x") is pool.get("x")

    def test_creation_order_does_not_matter(self):
        p1, p2 = RngPool(3), RngPool(3)
        _ = p1.get("first")
        v1 = p1.get("second").random(3)
        v2 = p2.get("second").random(3)
        assert np.array_equal(v1, v2)

    def test_fork(self):
        streams = RngPool(5).fork("workers", 3)
        assert len(streams) == 3
        draws = [s.random(4).tolist() for s in streams]
        assert draws[0] != draws[1] != draws[2]


class TestUnits:
    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(3 * MIB) == "3.00 MiB"
        assert format_bytes(1.5 * GIB) == "1.50 GiB"

    def test_format_count(self):
        assert format_count(87e6) == "87.00M"
        assert format_count(3.067e9) == "3.07B"
        # Two decimals keep neighbouring model sizes distinct in table1.
        assert format_count(86.6e6) == "86.60M"
        assert format_count(999) == "999"
        assert format_count(4_200) == "4K"

    def test_format_time(self):
        assert format_time(2.5) == "2.500 s"
        assert format_time(3e-3) == "3.000 ms"
        assert format_time(5e-6) == "5.0 us"
