"""Checkpoint resharding: any snapshot into any compatible world.

Canonicalize/decanonicalize round trips, cross-topology reshard +
continue-training bit-identity (the paper-motivated FULL_SHARD →
HYBRID fold included), and the typed refusals for incompatible moves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.engine import EngineConfig, make_engine
from repro.core.trainer import MAEPretrainer
from repro.elastic.errors import ElasticCompatibilityError
from repro.elastic.layout import ReductionLayout
from repro.elastic.reshard import (
    TopologySpec,
    canonicalize,
    decanonicalize,
    engine_topology,
    reshard_engine_state,
    reshard_trainer_state,
)
from repro.models.mae import MaskedAutoencoder
from repro.optim.schedules import CosineWithWarmup

LAYOUT4 = ReductionLayout(total=4, chunk=4)
GLOBAL_BATCH = 8
TOTAL_STEPS = 4


def _model(tiny_mae_cfg, init_seed=7):
    return MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(init_seed))


def _engine(tiny_mae_cfg, strategy, world_size, *, shard_size=None,
            grad_accum_steps=1, init_seed=7):
    return make_engine(
        _model(tiny_mae_cfg, init_seed),
        strategy,
        world=World(size=world_size, ranks_per_node=world_size),
        config=EngineConfig(
            shard_size=shard_size,
            grad_accum_steps=grad_accum_steps,
            reduction_layout=LAYOUT4,
        ),
    )


def _trainer(engine, images, **kw):
    schedule = CosineWithWarmup(
        base_lr=engine.lr, total_steps=TOTAL_STEPS, warmup_steps=1
    )
    return MAEPretrainer(
        engine, images, global_batch=GLOBAL_BATCH, schedule=schedule, seed=9, **kw
    )


@pytest.fixture
def images():
    return np.random.default_rng(11).standard_normal((16, 3, 16, 16))


def _assert_states_equal(a: dict, b: dict, path="state"):
    if isinstance(a, float) and isinstance(b, (float, np.floating)):
        # Scalars may come back as np.float64; only the bits matter.
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), path
        return
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert set(a) == set(b), path
        for k in a:
            _assert_states_equal(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_states_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, path
        np.testing.assert_array_equal(a, b, err_msg=path)
    else:
        assert a == b, path


ALLOCS = [
    ("full_shard", dict(world_size=4)),
    ("ddp", dict(world_size=4)),
    ("shard_grad_op", dict(world_size=2, grad_accum_steps=2)),
    ("no_shard", dict(world_size=1, grad_accum_steps=4)),
    ("hybrid_shard", dict(world_size=2, shard_size=2, grad_accum_steps=2)),
]


class TestTopologySpec:
    def test_dict_round_trip(self, tiny_mae_cfg):
        engine = _engine(tiny_mae_cfg, "full_shard", 4)
        spec = engine_topology(engine)
        assert spec == TopologySpec.from_dict(spec.to_dict())
        assert spec.kind == "fsdp"
        assert spec.world_size == 4
        assert spec.layout == LAYOUT4

    def test_malformed_record_is_typed(self):
        with pytest.raises(ElasticCompatibilityError, match="malformed"):
            TopologySpec.from_dict({"kind": "fsdp"})

    def test_trajectory_vs_shape(self, tiny_mae_cfg):
        a = engine_topology(_engine(tiny_mae_cfg, "full_shard", 4))
        b = engine_topology(_engine(tiny_mae_cfg, "ddp", 2, grad_accum_steps=2))
        assert a.same_trajectory(b)
        assert not a.same_shape(b)
        assert a.same_shape(a)


class TestCanonicalRoundTrip:
    @pytest.mark.parametrize(("strategy", "kw"), ALLOCS)
    def test_same_topology_is_identity(self, tiny_mae_cfg, images, strategy, kw):
        engine = _engine(tiny_mae_cfg, strategy, **kw)
        _trainer(engine, images).run(2)
        sd = engine.state_dict()
        topo = engine_topology(engine)
        back = decanonicalize(
            canonicalize(sd, engine.model, topo), engine.model, topo
        )
        _assert_states_equal(back, sd)

    def test_uninitialized_optimizer_round_trips(self, tiny_mae_cfg):
        # Before the first step AdamW slots are empty dicts — the mapping
        # must carry "no state yet" across topologies, not invent zeros.
        src = _engine(tiny_mae_cfg, "full_shard", 4)
        dst = _engine(tiny_mae_cfg, "ddp", 2, grad_accum_steps=2, init_seed=99)
        out = reshard_engine_state(
            src.state_dict(),
            dst.model,
            engine_topology(src),
            engine_topology(dst),
        )
        dst.load_state_dict(out)
        for (n, a), (_, b) in zip(
            src.model.named_parameters(), dst.model.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=n)


class TestReshardContinuation:
    """Reshard mid-run, continue in the new world, match the oracle."""

    def _oracle(self, tiny_mae_cfg, images):
        engine = _engine(tiny_mae_cfg, "full_shard", 4)
        result = _trainer(engine, images).run(TOTAL_STEPS)
        return result.losses, {
            n: p.data.copy() for n, p in engine.model.named_parameters()
        }

    @pytest.mark.parametrize(("strategy", "kw"), ALLOCS)
    def test_full_shard_snapshot_into_any_world(
        self, tiny_mae_cfg, images, strategy, kw
    ):
        golden_losses, golden = self._oracle(tiny_mae_cfg, images)

        src_engine = _engine(tiny_mae_cfg, "full_shard", 4)
        src_trainer = _trainer(src_engine, images)
        head = src_trainer.run(2).losses

        dst_engine = _engine(tiny_mae_cfg, strategy, init_seed=99, **kw)
        dst_trainer = _trainer(dst_engine, images)
        dst_trainer.load_state_dict(
            reshard_trainer_state(
                src_trainer.state_dict(),
                dst_engine.model,
                engine_topology(src_engine),
                engine_topology(dst_engine),
            )
        )
        tail = dst_trainer.run(TOTAL_STEPS - 2, start_step=2).losses

        assert head + tail == golden_losses, f"{strategy} diverged"
        for n, p in dst_engine.model.named_parameters():
            np.testing.assert_array_equal(p.data, golden[n], err_msg=n)

    def test_hybrid_fold_round_trip(self, tiny_mae_cfg, images):
        # FULL_SHARD 4 -> folded HYBRID 2 -> back to FULL_SHARD 4, one
        # training segment in each world; the whole chain must land on
        # the oracle bit-for-bit (the miniature of the campaign's
        # FULL_SHARD 16 -> HYBRID 8 headline move, plus the way back).
        golden_losses, golden = self._oracle(tiny_mae_cfg, images)
        losses = []

        e1 = _engine(tiny_mae_cfg, "full_shard", 4)
        t1 = _trainer(e1, images)
        losses += t1.run(1).losses

        e2 = _engine(
            tiny_mae_cfg, "hybrid_shard", 2, shard_size=2, grad_accum_steps=2,
            init_seed=98,
        )
        t2 = _trainer(e2, images)
        t2.load_state_dict(
            reshard_trainer_state(
                t1.state_dict(), e2.model, engine_topology(e1), engine_topology(e2)
            )
        )
        losses += t2.run(2, start_step=1).losses

        e3 = _engine(tiny_mae_cfg, "full_shard", 4, init_seed=97)
        t3 = _trainer(e3, images)
        t3.load_state_dict(
            reshard_trainer_state(
                t2.state_dict(), e3.model, engine_topology(e2), engine_topology(e3)
            )
        )
        losses += t3.run(1, start_step=3).losses

        assert losses == golden_losses
        for n, p in e3.model.named_parameters():
            np.testing.assert_array_equal(p.data, golden[n], err_msg=n)


class TestTypedRefusals:
    def test_layout_mismatch_is_refused(self, tiny_mae_cfg):
        src = _engine(tiny_mae_cfg, "full_shard", 4)
        dst_model = _model(tiny_mae_cfg, 99)
        dst = make_engine(
            dst_model,
            "ddp",
            world=World(size=2, ranks_per_node=2),  # layout (2, 2) != (4, 4)
        )
        with pytest.raises(ElasticCompatibilityError, match="compatible_allocations"):
            reshard_engine_state(
                src.state_dict(),
                dst_model,
                engine_topology(src),
                engine_topology(dst),
            )

    def test_unknown_engine_key_is_refused(self, tiny_mae_cfg):
        engine = _engine(tiny_mae_cfg, "full_shard", 4)
        sd = engine.state_dict()
        sd["ema"] = 1
        topo = engine_topology(engine)
        with pytest.raises(ElasticCompatibilityError, match="ENGINE_STATE_KEYS"):
            canonicalize(sd, engine.model, topo)

    def test_unknown_trainer_key_is_refused(self, tiny_mae_cfg, images):
        engine = _engine(tiny_mae_cfg, "full_shard", 4)
        trainer = _trainer(engine, images)
        sd = trainer.state_dict()
        sd["curriculum"] = {}
        topo = engine_topology(engine)
        with pytest.raises(ElasticCompatibilityError, match="TRAINER_STATE_KEYS"):
            reshard_trainer_state(sd, engine.model, topo, topo)

    def test_slot_count_mismatch_is_refused(self, tiny_mae_cfg):
        engine = _engine(tiny_mae_cfg, "full_shard", 4)
        sd = engine.state_dict()
        topo = engine_topology(engine)
        wrong = TopologySpec.from_dict({**topo.to_dict(), "shard_size": 2})
        with pytest.raises(ElasticCompatibilityError, match="slots"):
            canonicalize(sd, engine.model, wrong)

    def test_plain_resume_refuses_resized_snapshot(
        self, tiny_mae_cfg, images, tmp_path
    ):
        # A W=2 k=1 engine on its natural layout reduces 2 micros, not
        # the snapshot's 4: no reshard can keep the trajectory.
        engine = _engine(tiny_mae_cfg, "full_shard", 4)
        trainer = _trainer(engine, images, checkpoint_dir=str(tmp_path), save_every=2)
        trainer.run(2)

        resized = make_engine(
            _model(tiny_mae_cfg, 99), "ddp", world=World(size=2, ranks_per_node=2)
        )
        fresh = _trainer(
            resized, images, checkpoint_dir=str(tmp_path), save_every=2
        )
        with pytest.raises(ElasticCompatibilityError, match="cannot reshard"):
            fresh.resume(TOTAL_STEPS)
