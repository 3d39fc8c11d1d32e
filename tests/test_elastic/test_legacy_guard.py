"""Legacy checkpoints and cursors meet a resized world: typed refusals.

The regression this suite pins: a pre-elastic checkpoint or sampler
cursor must fail with an actionable :class:`ElasticCompatibilityError`
instead of silently mis-striding the data stream or following a shifted
trajectory, while a snapshot that records its topology reshards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.checkpoints import CheckpointManager
from repro.core.engine import EngineConfig, make_engine
from repro.core.trainer import MAEPretrainer
from repro.elastic.errors import ElasticCompatibilityError
from repro.elastic.layout import ReductionLayout
from repro.models.mae import MaskedAutoencoder
from repro.optim.schedules import CosineWithWarmup
from tests.test_data.sampler import DistributedSampler

LAYOUT = ReductionLayout(total=4, chunk=4)
TOTAL_STEPS = 4


class TestSamplerCursorGuards:
    def test_legacy_cursor_without_world_size_is_refused(self):
        sampler = DistributedSampler(16, 4, rank=0)
        legacy = {"epoch": 0, "consumed": 2}  # pre-elastic format
        with pytest.raises(ElasticCompatibilityError, match="mis-stride"):
            sampler.load_state_dict(legacy)

    def test_legacy_message_names_the_way_out(self):
        sampler = DistributedSampler(16, 2, rank=0)
        with pytest.raises(
            ElasticCompatibilityError, match="epoch_indices"
        ):
            sampler.load_state_dict({"epoch": 1, "consumed": 0})

    @pytest.mark.parametrize(
        ("field", "value"),
        [("n_items", 32), ("seed", 77), ("drop_last", False)],
    )
    def test_stream_parameter_mismatch_is_refused(self, field, value):
        src = DistributedSampler(16, 4, rank=0)
        sd = src.state_dict()
        sd[field] = value
        dst = DistributedSampler(16, 4, rank=0)
        with pytest.raises(ElasticCompatibilityError, match=field):
            dst.load_state_dict(sd)

    def test_non_boundary_global_position_is_refused(self):
        src = DistributedSampler(16, 2, rank=0)
        src.advance(1)  # global position 2
        dst = DistributedSampler(16, 4, rank=0)
        with pytest.raises(ElasticCompatibilityError, match="boundary"):
            dst.load_state_dict(src.state_dict())

    def test_epoch_capacity_overflow_is_refused(self):
        # drop_last=False pads the permutation: 10 items at W=4 give
        # per_rank 3 (global 12), which overflows W=2's capacity of
        # 5 items/rank.
        src = DistributedSampler(10, 4, rank=0, drop_last=False)
        src.consumed = 3
        dst = DistributedSampler(10, 2, rank=0, drop_last=False)
        with pytest.raises(ElasticCompatibilityError, match="capacity"):
            dst.load_state_dict(src.state_dict())

    def test_compatible_cursor_loads_exactly(self):
        src = DistributedSampler(16, 2, rank=0, seed=5)
        src.advance(6)  # global position 12, epoch rolls at 8/rank
        dst = DistributedSampler(16, 4, rank=1, seed=5)
        dst.load_state_dict(src.state_dict())
        assert (dst.epoch, dst.consumed) == (src.epoch, 12 // 4)


def _trainer(tiny_mae_cfg, images, strategy, world_size, *, schedule,
             grad_accum_steps=1, init_seed=7, **kw):
    model = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(init_seed))
    engine = make_engine(
        model,
        strategy,
        world=World(size=world_size, ranks_per_node=world_size),
        config=EngineConfig(
            grad_accum_steps=grad_accum_steps, reduction_layout=LAYOUT
        ),
    )
    return MAEPretrainer(
        engine, images, global_batch=8, schedule=schedule, seed=9, **kw
    )


def _strip_elastic_meta(src_dir, dst_dir):
    """Re-save the latest snapshot without its topology record,
    simulating a checkpoint written before elastic resizing existed."""
    state, meta, step = CheckpointManager(str(src_dir)).latest_valid()
    legacy_meta = {k: v for k, v in meta.items() if k != "elastic"}
    assert "elastic" in meta, "premise: modern snapshots record topology"
    CheckpointManager(str(dst_dir)).save(state, step=step, meta=legacy_meta)


class TestLegacyCheckpointGuards:
    @pytest.fixture
    def images(self):
        return np.random.default_rng(11).standard_normal((16, 3, 16, 16))

    @pytest.fixture
    def schedule(self):
        return CosineWithWarmup(
            base_lr=1e-3, total_steps=TOTAL_STEPS, warmup_steps=1
        )

    @pytest.mark.parametrize(
        ("strategy", "world_size", "grad_accum_steps"),
        [("full_shard", 4, 1), ("full_shard", 2, 2), ("ddp", 2, 2)],
        ids=["same_shape", "full_shard_W2_k2", "ddp_W2_k2"],
    )
    def test_legacy_snapshot_is_refused(
        self, tiny_mae_cfg, images, schedule, tmp_path,
        strategy, world_size, grad_accum_steps,
    ):
        # A FULL_SHARD W=4 snapshot with its topology record stripped has
        # an unknown sharding shape: resume refuses it typed in every
        # world — its own included — instead of guessing a reshard.
        first = _trainer(
            tiny_mae_cfg, images, "full_shard", 4, schedule=schedule,
            checkpoint_dir=str(tmp_path / "src"), save_every=1,
        )
        first.run(2)
        _strip_elastic_meta(tmp_path / "src", tmp_path / "legacy")

        target = _trainer(
            tiny_mae_cfg, images, strategy, world_size, schedule=schedule,
            grad_accum_steps=grad_accum_steps, init_seed=99,
            checkpoint_dir=str(tmp_path / "legacy"), save_every=1,
        )
        with pytest.raises(ElasticCompatibilityError, match="predates"):
            target.resume(TOTAL_STEPS)

    def test_modern_snapshot_into_resized_world_reshards(
        self, tiny_mae_cfg, images, schedule, tmp_path
    ):
        # With the topology record present, DDP W=4 -> DDP W=2 k=2 keeps
        # the reduction layout, so resume reshards and continues the
        # uninterrupted trajectory bit-exact.
        golden = _trainer(tiny_mae_cfg, images, "ddp", 4, schedule=schedule)
        golden_losses = golden.run(TOTAL_STEPS).losses
        first = _trainer(
            tiny_mae_cfg, images, "ddp", 4, schedule=schedule,
            checkpoint_dir=str(tmp_path), save_every=1,
        )
        first.run(2)
        resized = _trainer(
            tiny_mae_cfg, images, "ddp", 2, schedule=schedule,
            grad_accum_steps=2, init_seed=99,
            checkpoint_dir=str(tmp_path), save_every=1,
        )
        assert resized.resume(TOTAL_STEPS).losses == golden_losses
        for (n, p), (_, q) in zip(
            resized.engine.model.named_parameters(),
            golden.engine.model.named_parameters(),
        ):
            np.testing.assert_array_equal(p.data, q.data, err_msg=n)
