"""Property-based tests: direct collectives vs the ring oracle, byte
accounting.

Hypothesis samples group sizes, buffer lengths (including uneven ring
chunk splits and empty-remainder shards), and reduce ops; ``SimComm``'s
direct forms must agree everywhere with the chunked ring algorithms of
``tests/test_comm/ring.py`` and the closed-form byte formulas must hold
exactly for every sampled configuration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import ReduceOp, SimComm
from repro.comm.world import Group
from tests.test_comm.ring import ring_all_gather, ring_all_reduce, ring_reduce_scatter


def _group(n: int) -> Group:
    return Group(tuple(range(n)))


class TestRingVsDirectProperties:
    @given(
        g=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=40),
        op=st.sampled_from(ReduceOp),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_all_reduce(self, g, extra, op, seed):
        # n >= g gives every rank a chunk; n % g != 0 exercises uneven
        # chunk splits inside ring_chunks.
        n = g + extra
        rng = np.random.default_rng(seed)
        bufs = [rng.standard_normal(n) for _ in range(g)]
        direct = SimComm().all_reduce([b.copy() for b in bufs], _group(g), op=op)
        for d, r in zip(direct, ring_all_reduce(bufs, op)):
            if op == "max":
                np.testing.assert_array_equal(d, r)
            else:
                np.testing.assert_allclose(d, r, atol=1e-12)

    @given(
        g=st.integers(min_value=1, max_value=8),
        shard=st.integers(min_value=0, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_all_gather_equal_shards(self, g, shard, seed):
        # shard=0 covers the empty-shard boundary.
        rng = np.random.default_rng(seed)
        shards = [rng.standard_normal(shard) for _ in range(g)]
        direct = SimComm().all_gather([s.copy() for s in shards], _group(g))
        for d, r in zip(direct, ring_all_gather(shards)):
            np.testing.assert_array_equal(d, r)

    @given(
        g=st.integers(min_value=2, max_value=6),
        sizes_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_gather_uneven_shards_direct(self, g, sizes_seed):
        # Uneven (including empty-remainder) shards: concatenation must
        # follow group order, in the direct form and round the ring.
        rng = np.random.default_rng(sizes_seed)
        sizes = [int(rng.integers(0, 7)) for _ in range(g)]
        shards = [np.full(s, float(r)) for r, s in enumerate(sizes)]
        out = SimComm().all_gather([s.copy() for s in shards], _group(g))
        expected = np.concatenate(shards)
        for o in out + ring_all_gather(shards):
            np.testing.assert_array_equal(o, expected)

    @given(
        g=st.integers(min_value=1, max_value=8),
        chunk=st.integers(min_value=0, max_value=12),
        op=st.sampled_from(ReduceOp),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_reduce_scatter(self, g, chunk, op, seed):
        # chunk=0 covers zero-length shards (empty remainder after
        # padding); n = g * chunk keeps the divisibility contract.
        rng = np.random.default_rng(seed)
        bufs = [rng.standard_normal(g * chunk) for _ in range(g)]
        direct = SimComm().reduce_scatter([b.copy() for b in bufs], _group(g), op=op)
        for d, r in zip(direct, ring_reduce_scatter(bufs, op)):
            assert d.shape == r.shape == (chunk,)
            if op == "max":
                np.testing.assert_array_equal(d, r)
            else:
                np.testing.assert_allclose(d, r, atol=1e-12)


class TestByteAccountingProperties:
    """The recorded wire bytes equal the ring formulas, exactly."""

    @given(
        g=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_reduce_bytes(self, g, n, seed):
        rng = np.random.default_rng(seed)
        comm = SimComm()
        bufs = [rng.standard_normal(n) for _ in range(g)]
        comm.all_reduce(bufs, _group(g))
        assert comm.stats.calls_by_op["all_reduce"] == 1
        assert comm.stats.bytes_by_op["all_reduce"] == 2 * (g - 1) / g * bufs[0].nbytes * g

    @given(
        g=st.integers(min_value=1, max_value=12),
        chunk=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduce_scatter_bytes(self, g, chunk, seed):
        rng = np.random.default_rng(seed)
        comm = SimComm()
        bufs = [rng.standard_normal(g * chunk) for _ in range(g)]
        comm.reduce_scatter(bufs, _group(g))
        assert comm.stats.bytes_by_op["reduce_scatter"] == (g - 1) / g * bufs[0].nbytes * g

    @given(
        g=st.integers(min_value=1, max_value=12),
        shard=st.integers(min_value=0, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_gather_bytes(self, g, shard, seed):
        rng = np.random.default_rng(seed)
        comm = SimComm()
        shards = [rng.standard_normal(shard) for _ in range(g)]
        full_bytes = sum(s.nbytes for s in shards)
        comm.all_gather(shards, _group(g))
        assert comm.stats.bytes_by_op["all_gather"] == (g - 1) / g * full_bytes * g

    @given(
        g=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_broadcast_bytes(self, g, n, seed):
        rng = np.random.default_rng(seed)
        comm = SimComm()
        bufs = [rng.standard_normal(n) for _ in range(g)]
        comm.broadcast(bufs, _group(g))
        assert comm.stats.bytes_by_op["broadcast"] == bufs[0].nbytes * (g - 1)


class TestReduceOpCoverage:
    @pytest.mark.parametrize("op", ReduceOp)
    def test_ring_handles_every_reduce_op(self, rng, op):
        g = 4
        bufs = [rng.standard_normal(g * 3) for _ in range(g)]
        direct = SimComm().reduce_scatter([b.copy() for b in bufs], _group(g), op=op)
        for d, r in zip(direct, ring_reduce_scatter(bufs, op)):
            np.testing.assert_allclose(d, r, atol=1e-12)
