"""Hypothesis property campaign over the elastic reshard mapping.

Random (strategy, world) → checkpoint → random (strategy', world')
round trips preserve every parameter, optimizer moment, and loader
cursor byte-for-byte; the sampler cursor re-strides onto any compatible
world and back without drift.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.elastic.errors import ElasticCompatibilityError
from repro.elastic.layout import ReductionLayout
from repro.elastic.requeue import Allocation, compatible_allocations
from repro.elastic.reshard import engine_topology, reshard_engine_state
from repro.core.config import MAEConfig, ViTConfig
from repro.core.trainer import MAEPretrainer
from repro.models.mae import MaskedAutoencoder
from tests.test_data.sampler import DistributedSampler

LAYOUTS = {
    "single": ReductionLayout(total=4, chunk=4),
    "chunked": ReductionLayout(total=4, chunk=2),
}
POOLS = {
    name: compatible_allocations(layout) for name, layout in LAYOUTS.items()
}


def _tiny_cfg():
    vit = ViTConfig(
        name="prop-tiny", width=16, depth=2, mlp=32, heads=4, patch=8,
        img_size=16,
    )
    return MAEConfig(
        encoder=vit, dec_width=16, dec_depth=1, dec_heads=4, mask_ratio=0.5
    )


def _engine(alloc: Allocation, layout: ReductionLayout, init_seed=7):
    model = MaskedAutoencoder(_tiny_cfg(), rng=np.random.default_rng(init_seed))
    return alloc.build(model, layout)


def _leaves(tree, prefix="state"):
    """Flatten a nested state dict to {dotted-path: leaf}."""
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from _leaves(v, f"{prefix}.{k}")
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            yield from _leaves(v, f"{prefix}[{i}]")
    else:
        yield prefix, tree


def _assert_byte_equal(a, b):
    fa, fb = dict(_leaves(a)), dict(_leaves(b))
    assert set(fa) == set(fb)
    for path, left in fa.items():
        right = fb[path]
        if isinstance(left, np.ndarray):
            assert left.dtype == right.dtype, path
            assert left.tobytes() == right.tobytes(), path
        elif isinstance(left, (float, np.floating)):
            assert np.float64(left).tobytes() == np.float64(right).tobytes(), path
        else:
            assert left == right, path


@pytest.mark.parametrize("family", sorted(POOLS))
def test_pool_is_rich_enough_to_sample(family):
    """Premise guard: each layout family offers ≥ 2 distinct shapes."""
    pool = POOLS[family]
    assert len(pool) >= 2
    assert len({(a.strategy, a.world_size, a.shard_size) for a in pool}) >= 2


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from(sorted(POOLS)),
    src_i=st.integers(min_value=0, max_value=10**6),
    dst_i=st.integers(min_value=0, max_value=10**6),
)
def test_reshard_round_trip_is_byte_exact(family, src_i, dst_i):
    layout = LAYOUTS[family]
    pool = POOLS[family]
    src_alloc = pool[src_i % len(pool)]
    dst_alloc = pool[dst_i % len(pool)]

    src = _engine(src_alloc, layout)
    # Two steps so AdamW moments, master weights, and scaler are all live.
    images = np.random.default_rng(11).standard_normal((8, 3, 16, 16))
    MAEPretrainer(src, images, global_batch=8, seed=9).run(2)
    sd = src.state_dict()
    src_topo = engine_topology(src)

    dst = _engine(dst_alloc, layout, init_seed=99)
    dst_topo = engine_topology(dst)
    forward = reshard_engine_state(sd, dst.model, src_topo, dst_topo)
    dst.load_state_dict(forward)

    back = reshard_engine_state(
        dst.state_dict(), src.model, dst_topo, src_topo
    )
    _assert_byte_equal(back, sd)


@settings(max_examples=20, deadline=None)
@given(
    n_items=st.integers(min_value=8, max_value=64),
    old_world=st.sampled_from([1, 2, 4, 8]),
    new_world=st.sampled_from([1, 2, 4, 8]),
    seed=st.integers(min_value=0, max_value=100),
    steps=st.integers(min_value=0, max_value=40),
)
def test_sampler_cursor_restrides_exactly(
    n_items, old_world, new_world, seed, steps
):
    src = DistributedSampler(n_items, old_world, rank=0, seed=seed)
    src.advance(steps)
    sd = src.state_dict()

    dst = DistributedSampler(n_items, new_world, rank=0, seed=seed)
    global_pos = sd["consumed"] * old_world
    compatible = (
        global_pos % new_world == 0
        and global_pos // new_world <= dst.per_rank
    )
    if not compatible:
        with pytest.raises(ElasticCompatibilityError):
            dst.load_state_dict(sd)
        return
    dst.load_state_dict(sd)

    # Round trip back to the original world: the cursor is unchanged.
    back = DistributedSampler(n_items, old_world, rank=0, seed=seed)
    back.load_state_dict(dst.state_dict())
    assert back.state_dict() == sd

    # And the global stream position is preserved: the union of what all
    # new-world ranks would draw next equals the union under the old
    # world — both resume at the same global permutation offset.
    assert dst.epoch == src.epoch
    assert dst.consumed * new_world == global_pos
