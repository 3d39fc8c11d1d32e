"""Tests for the compute and memory models."""

import pytest

from repro.core.config import (
    count_mae_params,
    count_vit_params,
    get_mae_config,
    get_vit_config,
)
from repro.core.sharding import ShardingStrategy
from repro.hardware.gpu import GpuSpec
from repro.perf.compute_model import (
    BYTES_PER_PARAM,
    block_forward_flops,
    forward_flops,
    unit_table,
    workload_units,
)
from repro.perf.memory_model import activation_bytes, memory_breakdown
from repro.utils.units import GIB


class TestComputeModel:
    def test_block_flops_formula(self):
        w, m, n = 8, 16, 4
        expected = n * (8 * w * w + 4 * w * m) + 4 * n * n * w
        assert block_forward_flops(w, m, n) == expected

    def test_vit_flops_scale_with_depth(self):
        base = get_vit_config("vit-base")
        huge = get_vit_config("vit-huge")
        assert forward_flops(huge) > 5 * forward_flops(base)

    def test_mae_encoder_sees_only_visible_tokens(self):
        """75% masking: the MAE encoder FLOPs are far below the full ViT."""
        cfg = get_mae_config("vit-base", img_size=224)
        full = forward_flops(cfg.encoder)
        mae = forward_flops(cfg)
        assert mae < 0.65 * full  # decoder adds back some, still much less

    def test_mae_decoder_is_small_fraction(self):
        """The paper (after He et al.): decoder <10% of per-token FLOPs.

        Read from the unit table's block rows: the decoder stack's FLOPs
        per token (it runs on every patch) against the encoder stack's
        (visible tokens only), 3.0 % on ViT-1B, 0.9 % on 3B and 0.7 % on
        5B at 224 px. At 75% masking the decoder runs on 4x the tokens,
        so the whole MAE still costs less than the *unmasked* encoder."""

        def per_token(row):
            return row.depth * row.flops / row.seq

        for name in ("vit-1b", "vit-3b", "vit-5b"):
            cfg = get_mae_config(name, img_size=224)
            _, enc, dec = unit_table(cfg)
            assert per_token(dec) < 0.10 * per_token(enc), name
            assert forward_flops(cfg) < forward_flops(cfg.encoder), name

    def test_units_cover_all_parameters(self):
        gpu = GpuSpec()
        for name in ("vit-base", "vit-3b", "proxy-3b"):
            cfg = get_vit_config(name)
            units = workload_units(cfg, 32, gpu)
            assert len(units) == cfg.depth + 1
            total = sum(u.param_bytes for u in units) // BYTES_PER_PARAM
            assert total == count_vit_params(cfg)
        cfg = get_mae_config("proxy-3b")
        units = workload_units(cfg, 32, gpu)
        total = sum(u.param_bytes for u in units) // BYTES_PER_PARAM
        assert total == count_mae_params(cfg)

    def test_mae_units_include_decoder(self):
        gpu = GpuSpec()
        cfg = get_mae_config("vit-base", img_size=224)
        units = workload_units(cfg, 32, gpu)
        assert len(units) == 1 + cfg.encoder.depth + cfg.dec_depth
        assert any(u.name.startswith("dec_") for u in units)

    def test_fwd_seconds_positive_and_scale_with_batch(self):
        gpu = GpuSpec()
        cfg = get_vit_config("vit-base")
        u32 = workload_units(cfg, 32, gpu)[1]
        u64 = workload_units(cfg, 64, gpu)[1]
        assert u64.fwd_seconds == pytest.approx(2 * u32.fwd_seconds)
        assert u32.bwd_seconds == pytest.approx(2 * u32.fwd_seconds)

    def test_local_batch_validated(self):
        with pytest.raises(ValueError):
            workload_units(get_vit_config("vit-base"), 0, GpuSpec())


class TestMemoryModel:
    def test_paper_3b_noshard_over_60gb(self):
        cfg = get_vit_config("vit-3b")
        mb = memory_breakdown(cfg, ShardingStrategy.NO_SHARD, world_size=8)
        assert mb.total > 55 * GIB  # paper: "more than 60 GB"
        assert mb.total < 64 * GIB

    def test_hybrid2_half_of_noshard_states(self):
        cfg = get_vit_config("vit-3b")
        ns = memory_breakdown(cfg, ShardingStrategy.NO_SHARD, world_size=8)
        h2 = memory_breakdown(
            cfg, ShardingStrategy.HYBRID_SHARD, world_size=8, shard_size=2
        )
        assert h2.model_states == pytest.approx(ns.model_states / 2)

    def test_full_shard_drops_with_world_size(self):
        cfg = get_vit_config("vit-3b")
        m8 = memory_breakdown(cfg, ShardingStrategy.FULL_SHARD, world_size=8)
        m512 = memory_breakdown(cfg, ShardingStrategy.FULL_SHARD, world_size=512)
        assert m512.total < m8.total
        assert m512.total < 10 * GIB  # paper: drops to ~4 GB

    def test_sgo_between_full_and_noshard(self):
        cfg = get_vit_config("vit-5b")
        args = dict(world_size=64)
        full = memory_breakdown(cfg, ShardingStrategy.FULL_SHARD, **args)
        sgo = memory_breakdown(cfg, ShardingStrategy.SHARD_GRAD_OP, **args)
        ns = memory_breakdown(cfg, ShardingStrategy.NO_SHARD, **args)
        assert full.total < sgo.total < ns.total

    def test_ddp_equals_noshard(self):
        cfg = get_vit_config("vit-1b")
        a = memory_breakdown(cfg, ShardingStrategy.DDP, world_size=8)
        b = memory_breakdown(cfg, ShardingStrategy.NO_SHARD, world_size=8)
        assert a.total == b.total

    def test_activation_checkpointing_reduces(self):
        with_ckpt = activation_bytes(768, 12, 12, 197, 32, checkpointing=True)
        without = activation_bytes(768, 12, 12, 197, 32, checkpointing=False)
        assert with_ckpt < without / 3

    def test_mae_memory_counts_decoder(self):
        mae = get_mae_config("vit-3b", img_size=504)
        vit = get_vit_config("vit-3b")
        m_mae = memory_breakdown(mae, ShardingStrategy.NO_SHARD, world_size=8)
        m_vit = memory_breakdown(vit, ShardingStrategy.NO_SHARD, world_size=8)
        assert m_mae.model_states > m_vit.model_states

    def test_validation(self):
        cfg = get_vit_config("vit-base")
        with pytest.raises(ValueError):
            memory_breakdown(cfg, ShardingStrategy.NO_SHARD, world_size=0)
        with pytest.raises(ValueError, match="shard_size"):
            memory_breakdown(cfg, ShardingStrategy.HYBRID_SHARD, world_size=8)


def _fig1_mae():
    return get_mae_config("vit-3b", img_size=504)


#: (config, strategy, world size, shard size, fp32 GiB, bf16 GiB) of the
#: cells ROADMAP item 21 quotes: Fig. 1's MAE ViT-3B NO_SHARD at 504 px
#: and Fig. 4's ViT-15B SHARD_GRAD_OP (4 / 16 / 64 nodes) and HYBRID_4.
_PINNED_CELLS = {
    "fig1-mae3b-no_shard": (_fig1_mae, ShardingStrategy.NO_SHARD, 8, None, 66.79, 60.90),
    "vit15b-sgo-4n": (
        lambda: get_vit_config("vit-15b"), ShardingStrategy.SHARD_GRAD_OP, 32, None,
        85.37, 47.17,
    ),
    "vit15b-sgo-16n": (
        lambda: get_vit_config("vit-15b"), ShardingStrategy.SHARD_GRAD_OP, 128, None,
        80.84, 41.89,
    ),
    "vit15b-sgo-64n": (
        lambda: get_vit_config("vit-15b"), ShardingStrategy.SHARD_GRAD_OP, 512, None,
        79.71, 40.57,
    ),
    "vit15b-hybrid4": (
        lambda: get_vit_config("vit-15b"), ShardingStrategy.HYBRID_SHARD, 32, 4,
        82.01, 73.64,
    ),
}


class TestMemoryModelPins:
    """The memory model's precision, accumulation and checkpointing
    branches, pinned in GiB on the cells the capacity item quotes. No
    simulated step reaches these branches (the simulator runs fp32,
    one round, checkpointed), so only these pins hold them still."""

    @pytest.mark.parametrize("cell", list(_PINNED_CELLS))
    @pytest.mark.parametrize("precision", ["fp32", "bf16"])
    def test_cell_gib(self, cell, precision):
        make, strategy, world, shard, fp32, bf16 = _PINNED_CELLS[cell]
        mb = memory_breakdown(
            make(), strategy, world_size=world, shard_size=shard, precision=precision
        )
        want = fp32 if precision == "fp32" else bf16
        assert mb.total / GIB == pytest.approx(want, abs=0.005)

    def test_accumulation_adds_the_fp32_buffer(self):
        mb = memory_breakdown(
            _fig1_mae(), ShardingStrategy.NO_SHARD, world_size=8, grad_accum_steps=4
        )
        assert mb.total / GIB == pytest.approx(80.31, abs=0.005)

    def test_no_checkpointing_keeps_every_activation(self):
        mb = memory_breakdown(
            _fig1_mae(), ShardingStrategy.NO_SHARD, world_size=8, checkpointing=False
        )
        assert mb.total / GIB == pytest.approx(163.77, abs=0.005)
