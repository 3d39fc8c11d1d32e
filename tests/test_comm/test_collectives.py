"""Tests for the executable collectives (direct forms, ring oracle beside)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import SimComm
from repro.comm.world import Group
from tests.test_comm.ring import ring_all_gather, ring_all_reduce, ring_reduce_scatter


def _group(n: int) -> Group:
    return Group(tuple(range(n)))


def _buffers(rng, g: int, n: int) -> list[np.ndarray]:
    return [rng.standard_normal(n) for _ in range(g)]


class TestAllReduce:
    @pytest.mark.parametrize("op", ["sum", "mean", "max"])
    @pytest.mark.parametrize("g", [1, 2, 3, 5])
    def test_matches_numpy(self, rng, op, g):
        comm = SimComm()
        bufs = _buffers(rng, g, 12)
        out = comm.all_reduce(bufs, _group(g), op=op)
        expected = {
            "sum": np.sum(bufs, axis=0),
            "mean": np.mean(bufs, axis=0),
            "max": np.max(bufs, axis=0),
        }[op]
        for o in out:
            np.testing.assert_allclose(o, expected)

    def test_all_ranks_get_identical_copies(self, rng):
        comm = SimComm()
        out = comm.all_reduce(_buffers(rng, 3, 8), _group(3))
        assert out[0] is not out[1]
        np.testing.assert_array_equal(out[0], out[2])

    def test_result_does_not_alias_inputs(self, rng):
        comm = SimComm()
        bufs = _buffers(rng, 2, 4)
        out = comm.all_reduce(bufs, _group(2))
        out[0][...] = 999.0
        assert not np.any(bufs[0] == 999.0)

    def test_unknown_op_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown reduce op"):
            SimComm().all_reduce(_buffers(rng, 2, 4), _group(2), op="median")

    def test_wrong_buffer_count_rejected(self, rng):
        with pytest.raises(ValueError, match="expected 3 buffers"):
            SimComm().all_reduce(_buffers(rng, 2, 4), _group(3))


class TestAllGather:
    def test_concatenates_in_group_order(self, rng):
        comm = SimComm()
        shards = [np.full(2, float(r)) for r in range(3)]
        out = comm.all_gather(shards, _group(3))
        np.testing.assert_array_equal(out[0], [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(out[0], out[2])

    def test_unequal_shards_supported(self, rng):
        comm = SimComm()
        shards = [np.arange(2.0), np.arange(3.0)]
        out = comm.all_gather(shards, _group(2))
        np.testing.assert_array_equal(out[1], [0, 1, 0, 1, 2])

    def test_requires_1d(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            SimComm().all_gather([rng.standard_normal((2, 2))] * 2, _group(2))


class TestReduceScatter:
    def test_rank_i_gets_chunk_i(self, rng):
        comm = SimComm()
        bufs = [np.arange(6.0) for _ in range(3)]
        out = comm.reduce_scatter(bufs, _group(3), op="sum")
        np.testing.assert_array_equal(out[0], [0, 3])
        np.testing.assert_array_equal(out[1], [6, 9])
        np.testing.assert_array_equal(out[2], [12, 15])

    def test_mean(self, rng):
        comm = SimComm()
        bufs = [np.full(4, float(r)) for r in range(4)]
        out = comm.reduce_scatter(bufs, _group(4), op="mean")
        for o in out:
            np.testing.assert_allclose(o, [1.5])

    def test_indivisible_length_rejected(self, rng):
        with pytest.raises(ValueError, match="not divisible"):
            SimComm().reduce_scatter(_buffers(rng, 3, 7), _group(3))


class TestBroadcast:
    def test_copies_root(self, rng):
        comm = SimComm()
        bufs = _buffers(rng, 3, 5)
        out = comm.broadcast(bufs, _group(3), root_index=1)
        for o in out:
            np.testing.assert_array_equal(o, bufs[1])

    def test_bad_root_rejected(self, rng):
        with pytest.raises(ValueError, match="root_index"):
            SimComm().broadcast(_buffers(rng, 2, 4), _group(2), root_index=5)


class TestRingEquivalence:
    """The direct forms must agree with the chunked ring oracle."""

    @pytest.mark.parametrize("g", [2, 3, 4, 7])
    @pytest.mark.parametrize("n", [8, 21, 64])
    def test_ring_all_gather(self, rng, g, n):
        shards = [rng.standard_normal(n) for _ in range(g)]
        direct = SimComm().all_gather([s.copy() for s in shards], _group(g))
        for d, r in zip(direct, ring_all_gather(shards)):
            np.testing.assert_array_equal(d, r)

    @pytest.mark.parametrize("op", ["sum", "mean"])
    @pytest.mark.parametrize("g", [2, 3, 4, 6])
    def test_ring_reduce_scatter(self, rng, op, g):
        bufs = [rng.standard_normal(g * 5) for _ in range(g)]
        direct = SimComm().reduce_scatter([b.copy() for b in bufs], _group(g), op=op)
        for d, r in zip(direct, ring_reduce_scatter(bufs, op)):
            np.testing.assert_allclose(d, r, atol=1e-12)

    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_ring_all_reduce(self, rng, g):
        bufs = [rng.standard_normal(17) for _ in range(g)]
        direct = SimComm().all_reduce([b.copy() for b in bufs], _group(g), op="mean")
        for d, r in zip(direct, ring_all_reduce(bufs, "mean")):
            np.testing.assert_allclose(d, r, atol=1e-12)


class TestCollectiveAlgebra:
    """Property: all-gather(reduce-scatter(x)) == all-reduce(x)."""

    @given(
        g=st.integers(min_value=2, max_value=6),
        chunk=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rs_then_ag_equals_ar(self, g, chunk, seed):
        rng = np.random.default_rng(seed)
        group = _group(g)
        comm = SimComm()
        bufs = [rng.standard_normal(g * chunk) for _ in range(g)]
        scattered = comm.reduce_scatter([b.copy() for b in bufs], group, op="sum")
        gathered = comm.all_gather(scattered, group)
        reduced = comm.all_reduce([b.copy() for b in bufs], group, op="sum")
        for ga, ar in zip(gathered, reduced):
            np.testing.assert_allclose(ga, ar, atol=1e-12)


class TestCommStats:
    def test_byte_formulas(self, rng):
        comm = SimComm()
        g = 4
        bufs = _buffers(rng, g, 8)  # 64 bytes each (float64)
        nbytes = bufs[0].nbytes
        comm.all_reduce(bufs, _group(g))
        assert comm.stats.calls_by_op["all_reduce"] == 1
        assert comm.stats.bytes_by_op["all_reduce"] == pytest.approx(
            2 * (g - 1) / g * nbytes * g
        )
        comm.reduce_scatter(bufs, _group(g))
        assert comm.stats.bytes_by_op["reduce_scatter"] == pytest.approx(
            (g - 1) / g * nbytes * g
        )
        shards = [b[:2] for b in bufs]
        comm.all_gather(shards, _group(g))
        assert comm.stats.bytes_by_op["all_gather"] == pytest.approx(
            (g - 1) / g * sum(s.nbytes for s in shards) * g
        )

    def test_totals_and_reset(self, rng):
        comm = SimComm()
        comm.all_reduce(_buffers(rng, 2, 4), _group(2))
        comm.broadcast(_buffers(rng, 2, 4), _group(2))
        assert comm.stats.total_calls == 2
        assert comm.stats.total_bytes > 0
        comm.stats.reset()
        assert comm.stats.total_calls == 0
        assert comm.stats.total_bytes == 0
