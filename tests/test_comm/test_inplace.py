"""``out=``: collectives that fill caller-owned receive buffers.

``all_gather`` / ``reduce_scatter`` / ``all_reduce`` run one fill whether
they allocate the receive buffers (``out=None``) or are handed them.
These tests pin that the bytes and the ledger cannot tell the two apart,
that the fill equals the stacked reduction it replaced bit for bit, that
a failed attempt never writes to ``out``, and that a mesh or DDP step in
steady state no longer allocates a model's worth of temporaries.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import ReduceOp, SimComm
from repro.comm.faults import CollectiveError, FaultPlan, FaultSpec
from repro.comm.world import Group, World
from repro.core.config import get_mae_config
from repro.core.engine import make_engine
from repro.mesh.spec import MeshSpec
from repro.models.mae import MaskedAutoencoder
from repro.models.workspace import Workspace
from tests.test_comm.ring import ring_all_gather, ring_all_reduce, ring_reduce_scatter
from tests.test_mesh.helpers import mae_step, mesh_engine, tiny_micros

DTYPES = (np.float64, np.float32)


def _group(n: int) -> Group:
    return Group(tuple(range(n)))


def _ledger(comm: SimComm) -> tuple[dict, dict, dict]:
    stats = comm.stats
    return dict(stats.calls_by_op), dict(stats.bytes_by_op), dict(stats.bytes_by_dtype)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=80)
def test_all_gather_out_matches_allocating_and_ring(sizes, dtype, seed):
    g = len(sizes)
    rng = np.random.default_rng(seed)
    shards = [rng.standard_normal(n).astype(dtype) for n in sizes]
    plain = SimComm()
    want = plain.all_gather(shards, _group(g))
    comm = SimComm()
    out = np.full(sum(sizes), np.nan, dtype)
    got = comm.all_gather(shards, _group(g), out=out)
    assert len(got) == g and all(r is out for r in got)
    _same_bytes(out, want[0])
    _same_bytes(out, np.concatenate(shards))
    for r in ring_all_gather(shards):
        _same_bytes(out, r)
    assert _ledger(comm) == _ledger(plain)


@given(
    g=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40)
def test_all_gather_shards_that_are_their_own_slot_move_nothing(g, n, seed):
    flat = np.random.default_rng(seed).standard_normal(g * n)
    want = flat.copy()
    flat.setflags(write=False)  # any copy into ``out`` would raise
    views = [flat[i * n : (i + 1) * n] for i in range(g)]
    comm = SimComm()
    assert comm.all_gather(views, _group(g), out=flat)[0] is flat
    _same_bytes(flat, want)
    plain = SimComm()
    plain.all_gather([v.copy() for v in views], _group(g))
    assert _ledger(comm) == _ledger(plain)


@given(
    g=st.integers(min_value=1, max_value=5),
    chunk=st.integers(min_value=0, max_value=9),
    parts=st.sampled_from((1, 2, 3)),
    op=st.sampled_from(ReduceOp),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=120)
def test_reduce_scatter_out_matches_allocating_ring_and_stack(
    g, chunk, parts, op, dtype, seed
):
    rng = np.random.default_rng(seed)
    bufs = [rng.standard_normal(g * chunk).astype(dtype) for _ in range(g * parts)]
    kwargs = {"op": op, "parts_per_rank": parts}
    plain = SimComm()
    want = plain.reduce_scatter(bufs, _group(g), **kwargs)
    stacked = getattr(np.stack(bufs), op)(axis=0)
    comm = SimComm()
    out = [np.full(chunk, np.nan, dtype) for _ in range(g)]
    got = comm.reduce_scatter(bufs, _group(g), out=out, **kwargs)
    assert _ledger(comm) == _ledger(plain)
    for i in range(g):
        assert got[i] is out[i]
        _same_bytes(out[i], want[i])
        _same_bytes(out[i], stacked[i * chunk : (i + 1) * chunk])
    # The ring oracle accumulates in its own order (one part per rank):
    # the fill stays within rounding of it.
    if parts == 1:
        for i, ring in enumerate(ring_reduce_scatter(bufs, op)):
            np.testing.assert_allclose(ring, out[i], rtol=1e-5, atol=1e-6)


@given(
    g=st.integers(min_value=1, max_value=5),
    shape=st.sampled_from([(0,), (1,), (2,), (9,), (3, 4), ()]),
    parts=st.sampled_from((1, 2, 3)),
    op=st.sampled_from(ReduceOp),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=120)
def test_all_reduce_out_matches_allocating_ring_and_stack(
    g, shape, parts, op, dtype, seed
):
    rng = np.random.default_rng(seed)
    bufs = [rng.standard_normal(shape).astype(dtype) for _ in range(g * parts)]
    kwargs = {"op": op, "parts_per_rank": parts}
    plain = SimComm()
    want = plain.all_reduce(bufs, _group(g), **kwargs)
    assert len(want) == g and len({id(w) for w in want}) == g
    comm = SimComm()
    out = np.full(shape, np.nan, dtype)
    got = comm.all_reduce(bufs, _group(g), out=out, **kwargs)
    assert _ledger(comm) == _ledger(plain)
    assert len(got) == g and all(r is out for r in got)
    for w in want:
        _same_bytes(out, w)
    # NumPy sums a lone column pairwise from eight rows up; everywhere
    # else the sequential fill *is* the stacked reduction.
    if out.size != 1 or len(bufs) < 8:
        _same_bytes(out, getattr(np.stack(bufs), op)(axis=0))
    # The ring oracle moves 1-D chunks, one part per rank.
    if len(shape) == 1 and parts == 1:
        for ring in ring_all_reduce(bufs, op):
            np.testing.assert_allclose(ring, out, rtol=1e-5, atol=1e-6)


def test_out_of_the_wrong_shape_is_refused_before_the_ledger_moves():
    # A fault plan proves nothing was consulted either: its one slot
    # would fail the first call that reached it.
    plan = FaultPlan([FaultSpec("all_reduce", "transient")])
    comm = SimComm(fault_plan=plan)
    shards = [np.ones(3), np.ones(2)]
    with pytest.raises(ValueError, match="gathered length 5"):
        comm.all_gather(shards, _group(2), out=np.empty(6))
    with pytest.raises(ValueError, match="chunk length 2"):
        comm.reduce_scatter([np.ones(4)] * 2, _group(2), out=[np.empty(2)])
    with pytest.raises(ValueError, match="unknown reduce op 'avg'"):
        comm.all_reduce([np.ones(4)] * 2, _group(2), op="avg")
    with pytest.raises(ValueError, match=r"buffers' shape \(4,\)"):
        comm.all_reduce([np.ones(4)] * 2, _group(2), out=np.empty((2, 2)))
    assert comm.stats.total_calls == 0 and comm.stats.total_bytes == 0
    with pytest.raises(CollectiveError):  # the slot is still there
        comm.all_reduce([np.ones(4)] * 2, _group(2))


@pytest.mark.parametrize("kind", ["transient", "drop", "corrupt"])
def test_a_failed_attempt_writes_nothing_to_out(kind):
    rng = np.random.default_rng(0)
    ops = ("all_gather", "reduce_scatter", "all_reduce")
    plan = FaultPlan([FaultSpec(op, kind, rank=1) for op in ops])
    comm = SimComm(fault_plan=plan)
    shards = [rng.standard_normal(4) for _ in range(2)]
    bufs = [rng.standard_normal(8) for _ in range(2)]
    gathered = np.full(8, 7.0)
    reduced = [np.full(4, 7.0) for _ in range(2)]
    summed = np.full(8, 7.0)
    with pytest.raises(CollectiveError):
        comm.all_gather(shards, _group(2), out=gathered)
    with pytest.raises(CollectiveError):
        comm.reduce_scatter(bufs, _group(2), out=reduced)
    with pytest.raises(CollectiveError):
        comm.all_reduce(bufs, _group(2), out=summed)
    assert all((a == 7.0).all() for a in [gathered, *reduced, summed])
    # The retry then fills the same memory with the unfaulted answer.
    comm.all_gather(shards, _group(2), out=gathered)
    comm.reduce_scatter(bufs, _group(2), out=reduced)
    comm.all_reduce(bufs, _group(2), out=summed)
    np.testing.assert_array_equal(gathered, np.concatenate(shards))
    np.testing.assert_allclose(np.concatenate(reduced), bufs[0] + bufs[1], rtol=1e-15)
    np.testing.assert_allclose(summed, bufs[0] + bufs[1], rtol=1e-15)
    assert comm.stats.calls_by_op == dict.fromkeys(ops, 2)


def test_steady_state_mesh_step_allocates_less_than_one_flat_model():
    eng = mesh_engine(MeshSpec(pp=2, dp=2, tp=2, schedule="1f1b"), "full_shard", k=2)
    eng.model.use_workspace(Workspace())
    try:
        for seed in (1, 2):  # outbound sets, lanes and staging rows fill here
            eng.train_step(tiny_micros(4, seed=seed), mae_step)
        micros = tiny_micros(4, seed=3)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            eng.train_step(micros, mae_step)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < sum(unit.flat.nbytes for unit in eng.units)
    finally:
        eng.close()


def test_steady_state_ddp_step_allocates_little_more_than_one_gradient():
    """Backward writes into the bucket buffers, the all-reduce means the
    outbound copy back into them and the optimizer reads them there: one
    copy of the gradient per step is all that is left to allocate."""
    model = MaskedAutoencoder(get_mae_config("proxy-1b"), rng=np.random.default_rng(7))
    model.use_workspace(Workspace())
    eng = make_engine(model, "ddp", world=World(1))
    rng = np.random.default_rng(3)
    micro = (rng.standard_normal((4, 3, 32, 32)), rng.random((4, 16)))
    for _ in range(2):  # the workspace and AdamW's moments fill here
        eng.train_step([micro], mae_step)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        eng.train_step([micro], mae_step)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sum(buf.nbytes for buf in eng.grad_buffers)
