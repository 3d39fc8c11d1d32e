"""Tests for sharding strategies, flat parameters, and wrap units."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sharding import (
    BackwardPrefetch,
    FlatUnit,
    ShardingStrategy,
    ShardPlan,
    default_wrap_units,
    flatten_params,
    parse_strategy,
    unflatten_params,
)
from repro.models.module import Parameter
from repro.models.vit import VisionTransformer


class TestParseStrategy:
    def test_plain_names(self):
        assert parse_strategy("FULL_SHARD") == (ShardingStrategy.FULL_SHARD, None)
        assert parse_strategy("no_shard") == (ShardingStrategy.NO_SHARD, None)
        assert parse_strategy("DDP") == (ShardingStrategy.DDP, None)

    def test_paper_hybrid_labels(self):
        assert parse_strategy("HYBRID_2GPUs") == (ShardingStrategy.HYBRID_SHARD, 2)
        assert parse_strategy("HYBRID_16GPUS") == (ShardingStrategy.HYBRID_SHARD, 16)
        assert parse_strategy("hybrid_1gpu") == (ShardingStrategy.HYBRID_SHARD, 1)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown sharding strategy"):
            parse_strategy("ZERO3")

    def test_prefetch_enum_members(self):
        assert {p.value for p in BackwardPrefetch} == {
            "NONE", "BACKWARD_POST", "BACKWARD_PRE",
        }


class TestShardPlan:
    def test_exact_division(self):
        plan = ShardPlan(numel=12, shard_size=4)
        assert plan.padded_numel == 12
        assert plan.shard_numel == 3
        assert plan.shard_slice(1) == slice(3, 6)

    def test_padding(self):
        plan = ShardPlan(numel=10, shard_size=4)
        assert plan.padded_numel == 12
        assert plan.shard_numel == 3

    def test_bad_index(self):
        with pytest.raises(ValueError):
            ShardPlan(numel=8, shard_size=2).shard_slice(2)

    @given(
        numel=st.integers(min_value=1, max_value=10_000),
        shards=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_shards_cover_padded_exactly(self, numel, shards):
        plan = ShardPlan(numel=numel, shard_size=shards)
        assert plan.padded_numel >= numel
        assert plan.padded_numel - numel < shards
        covered = sum(
            plan.shard_slice(j).stop - plan.shard_slice(j).start
            for j in range(shards)
        )
        assert covered == plan.padded_numel


class TestFlattenUnflatten:
    def test_roundtrip(self, rng):
        params = [
            Parameter(rng.standard_normal((3, 4)), name="a"),
            Parameter(rng.standard_normal(5), name="b"),
        ]
        flat, layout = flatten_params(params)
        views = unflatten_params(flat, layout)
        np.testing.assert_array_equal(views[0], params[0].data)
        np.testing.assert_array_equal(views[1], params[1].data)

    def test_views_share_memory(self, rng):
        params = [Parameter(rng.standard_normal((2, 2)), name="a")]
        flat, layout = flatten_params(params)
        views = unflatten_params(flat, layout)
        flat[0] = 123.0
        assert views[0][0, 0] == 123.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            flatten_params([])


class TestFlatUnit:
    def test_installs_views(self, rng):
        p = Parameter(rng.standard_normal((2, 3)), name="w")
        unit = FlatUnit("u", [p], shard_size=2)
        # Optimizer-style write through the shard view updates the param.
        unit.shard_view(0)[0] = 42.0
        assert p.data.reshape(-1)[0] == 42.0

    def test_grad_views(self, rng):
        p = Parameter(rng.standard_normal(4), name="w")
        unit = FlatUnit("u", [p], shard_size=2)
        p.accumulate(np.ones(4))
        np.testing.assert_array_equal(unit.grad_flat, np.ones(4))
        unit.grad_flat[...] = 0.0
        assert np.all(p.grad == 0)

    def test_padding_preserved(self, rng):
        p = Parameter(rng.standard_normal(5), name="w")
        unit = FlatUnit("u", [p], shard_size=4)
        assert unit.flat.size == 8
        np.testing.assert_array_equal(unit.flat[5:], 0.0)

    def test_make_shards_view_flat(self, rng):
        p = Parameter(rng.standard_normal(6), name="w")
        unit = FlatUnit("u", [p], shard_size=3)
        shards = unit.make_shards()
        shards[1].data[...] = 7.0
        np.testing.assert_array_equal(p.data[2:4], 7.0)


class TestDefaultWrapUnits:
    def test_one_unit_per_block_plus_root(self, tiny_vit_cfg, rng):
        model = VisionTransformer(tiny_vit_cfg, rng=rng)
        units = default_wrap_units(model, shard_size=1)
        assert len(units) == tiny_vit_cfg.depth + 1
        assert units[0].name == "root"

    def test_units_partition_parameters(self, tiny_vit_cfg, rng):
        model = VisionTransformer(tiny_vit_cfg, n_classes=3, rng=rng)
        units = default_wrap_units(model, shard_size=1)
        assert sum(u.plan.numel for u in units) == model.n_params()

    def test_views_installed_model_wide(self, tiny_vit_cfg, rng):
        model = VisionTransformer(tiny_vit_cfg, rng=rng)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        units = default_wrap_units(model, shard_size=2)
        for n, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[n])
        # Zeroing all flats zeroes every model parameter.
        for u in units:
            u.flat[...] = 0.0
        assert all(np.all(p.data == 0) for p in model.parameters())
