"""Tests for engine checkpointing and exact training resume."""

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.config import ViTConfig, get_mae_config
from repro.core.engine import make_engine
from repro.core.sharding import ShardingStrategy
from repro.core.simclr_trainer import SimCLRPretrainer
from repro.core.trainer import MAEPretrainer
from repro.models.mae import MaskedAutoencoder
from repro.models.simclr import SimCLRModel
from repro.optim.schedules import CosineWithWarmup

CFG = get_mae_config("proxy-base")


def _fresh_engine(strategy=ShardingStrategy.FULL_SHARD, world_size=2):
    model = MaskedAutoencoder(CFG, rng=np.random.default_rng(7))
    return make_engine(model, strategy, world=World(world_size, ranks_per_node=2))


def _images():
    return np.random.default_rng(42).standard_normal((32, 3, 32, 32))


def _mae(seed=5):
    return MAEPretrainer(_fresh_engine(), _images(), global_batch=8, seed=seed)


def _simclr(seed=5):
    cfg = ViTConfig("t", 16, 2, 32, 4, patch=8, img_size=16)
    model = SimCLRModel(cfg, proj_dim=8, rng=np.random.default_rng(7))
    engine = make_engine(model, "full_shard", world=World(2, ranks_per_node=2))
    images = np.random.default_rng(42).standard_normal((32, 3, 16, 16))
    return SimCLRPretrainer(engine, images, global_batch=8, seed=seed)


#: Both objectives run the one loop; 32 images / batch 8 = 4 steps an
#: epoch, so a run resumed at step 3 reshuffles at step 4.
both_trainers = pytest.mark.parametrize("make_trainer", [_mae, _simclr], ids=["mae", "simclr"])


class TestEngineCheckpoint:
    def test_state_dict_roundtrip(self):
        engine = _fresh_engine()
        trainer = MAEPretrainer(engine, _images(), global_batch=8, seed=5)
        trainer.run(3)
        sd = engine.state_dict()
        assert sd["step_count"] == 3

        other = _fresh_engine()
        other.load_state_dict(sd)
        assert other.step_count == 3
        for (_, a), (_, b) in zip(
            engine.model.named_parameters(), other.model.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)

    @both_trainers
    def test_resume_reproduces_uninterrupted_run(self, make_trainer):
        # Uninterrupted: 6 steps.
        t_full = make_trainer()
        losses_full = t_full.run(6).losses

        # Interrupted: 3 steps, checkpoint, restore into a new engine,
        # resume for 3 more (across the epoch boundary at step 4).
        t1 = make_trainer()
        # Match the uninterrupted run's schedule horizon.
        sched = CosineWithWarmup(base_lr=t1.engine.lr, total_steps=6, warmup_steps=1)
        t1.schedule = sched
        losses_a = t1.run(3).losses
        snapshot = t1.engine.state_dict()

        t2 = make_trainer()
        t2.engine.load_state_dict(snapshot)
        t2.schedule = sched
        losses_b = t2.run(3, start_step=t2.engine.step_count).losses

        np.testing.assert_allclose(losses_a + losses_b, losses_full, atol=1e-12)
        for (_, a), (_, b) in zip(
            t_full.engine.model.named_parameters(), t2.engine.model.named_parameters()
        ):
            np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_resume_across_strategies(self):
        """A FULL_SHARD checkpoint restores into a NO_SHARD engine
        (same shard count is not required for model weights; optimizer
        layouts differ, so only the model transfers)."""
        engine = _fresh_engine(ShardingStrategy.FULL_SHARD)
        MAEPretrainer(engine, _images(), global_batch=8, seed=5).run(2)
        target = _fresh_engine(ShardingStrategy.FULL_SHARD)
        target.load_state_dict(engine.state_dict())
        for (_, a), (_, b) in zip(
            engine.model.named_parameters(), target.model.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)

    @both_trainers
    def test_start_step_validation(self, make_trainer):
        trainer = make_trainer(seed=0)
        # Whatever n_steps: the argument is named, not a schedule or
        # SeedSequence accident further down.
        for n_steps in (1, 2):
            with pytest.raises(ValueError, match="start_step must be non-negative"):
                trainer.run(n_steps, start_step=-1)
