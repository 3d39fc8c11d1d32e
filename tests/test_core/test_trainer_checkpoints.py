"""Tests for the MAE pretrainer, checkpoints, and scaling driver."""

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.checkpoints import checkpoint_exists, load_checkpoint, save_checkpoint
from repro.core.config import get_mae_config, get_vit_config
from repro.core.engine import make_engine
from repro.core.scaling import run_strategy_grid, run_weak_scaling
from repro.core.sharding import ShardingStrategy
from repro.core.trainer import MAEPretrainer, TrainResult
from repro.models.mae import MaskedAutoencoder

CFG = get_mae_config("proxy-base")


def _engine(world_size=1):
    model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
    return make_engine(
        model, ShardingStrategy.NO_SHARD, world=World(world_size, ranks_per_node=1)
    )


def _images(n=32):
    return np.random.default_rng(3).standard_normal((n, 3, 32, 32))


class TestTrainer:
    def test_losses_recorded_per_step(self):
        trainer = MAEPretrainer(_engine(), _images(), global_batch=8, seed=1)
        result = trainer.run(4)
        assert len(result.losses) == 4
        assert len(result.lrs) == 4
        assert all(np.isfinite(result.losses))

    def test_default_schedule_warms_up(self):
        trainer = MAEPretrainer(_engine(), _images(), global_batch=8, seed=1)
        result = trainer.run(20)
        assert result.lrs[0] < result.lrs[2]  # warmup
        assert result.lrs[-1] < max(result.lrs)  # decay

    def test_loss_decreases_over_training(self):
        trainer = MAEPretrainer(_engine(), _images(), global_batch=8, seed=1)
        result = trainer.run(30)
        assert np.mean(result.losses[-5:]) < np.mean(result.losses[:5])

    def test_epoch_means(self):
        r = TrainResult(losses=[1.0, 2.0, 3.0, 4.0, 5.0], steps_per_epoch=2)
        np.testing.assert_allclose(r.epoch_means(), [1.5, 3.5, 5.0])

    def test_deterministic_across_runs(self):
        r1 = MAEPretrainer(_engine(), _images(), global_batch=8, seed=1).run(3)
        r2 = MAEPretrainer(_engine(), _images(), global_batch=8, seed=1).run(3)
        np.testing.assert_array_equal(r1.losses, r2.losses)

    def test_seed_changes_trajectory(self):
        r1 = MAEPretrainer(_engine(), _images(), global_batch=8, seed=1).run(3)
        r2 = MAEPretrainer(_engine(), _images(), global_batch=8, seed=2).run(3)
        assert r1.losses != r2.losses

    def test_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            MAEPretrainer(_engine(2), _images(), global_batch=9)
        with pytest.raises(ValueError, match="exceeds"):
            MAEPretrainer(_engine(), _images(8), global_batch=16)
        with pytest.raises(ValueError, match="images"):
            MAEPretrainer(_engine(), np.zeros((4, 3)), global_batch=2)
        trainer = MAEPretrainer(_engine(), _images(), global_batch=8)
        with pytest.raises(ValueError, match="positive"):
            trainer.run(0)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
        path = str(tmp_path / "ckpt")
        save_checkpoint(model, path, meta={"losses": [1.0, 0.5]})
        fresh = MaskedAutoencoder(CFG, rng=np.random.default_rng(99))
        meta = load_checkpoint(fresh, path)
        assert meta["losses"] == [1.0, 0.5]
        for (_, a), (_, b) in zip(
            model.named_parameters(), fresh.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)

    def test_exists(self, tmp_path):
        path = str(tmp_path / "x")
        assert not checkpoint_exists(path)
        save_checkpoint(
            MaskedAutoencoder(CFG, rng=np.random.default_rng(0)), path
        )
        assert checkpoint_exists(path)


class TestScalingDriver:
    def test_weak_scaling_series(self):
        cfg = get_vit_config("vit-base")
        series = run_weak_scaling(cfg, "NO_SHARD", [1, 2, 4])
        assert series.node_counts == [1, 2, 4]
        assert len(series.ips) == 3
        # Throughput grows with nodes but below ideal.
        assert series.ips[2] > series.ips[0]
        ideal = series.ideal_ips()
        assert ideal[2] == pytest.approx(4 * series.ips[0])
        assert all(0 < e <= 1.0 + 1e-9 for e in series.efficiency())

    def test_hybrid_label_accepted(self):
        cfg = get_vit_config("vit-base")
        series = run_weak_scaling(cfg, "HYBRID_2GPUs", [1, 2])
        assert len(series.points) == 2

    def test_grid(self):
        cfg = get_vit_config("vit-base")
        grid = run_strategy_grid(cfg, ["DDP", "FULL_SHARD"], [1, 2])
        assert set(grid) == {"DDP", "FULL_SHARD"}

    def test_validation(self):
        cfg = get_vit_config("vit-base")
        with pytest.raises(ValueError, match="ascending"):
            run_weak_scaling(cfg, "DDP", [4, 1])
        with pytest.raises(ValueError, match="at least one"):
            run_weak_scaling(cfg, "DDP", [])
