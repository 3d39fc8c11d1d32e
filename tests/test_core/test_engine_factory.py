"""make_engine / EngineConfig: dispatch, equivalence, validation.

``make_engine`` is the only construction path: for DDP and all four
FSDP strategies the engine it builds trains fp32 bit-identically to the
single-rank oracle accumulating the same microbatches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.engine import STRATEGY_CHOICES, EngineConfig, make_engine
from repro.core.engine_core import EngineCore
from repro.core.sharding import ShardingStrategy
from repro.core.trainer import MAEPretrainer
from repro.models.mae import MaskedAutoencoder
from repro.telemetry import NULL_BUS


def _train(engine_factory, tiny_mae_cfg, n_steps=2):
    rng = np.random.default_rng(0)
    images = rng.standard_normal((64, 3, 16, 16))
    model = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(1))
    engine = engine_factory(model)
    result = MAEPretrainer(engine, images, global_batch=16, seed=0).run(n_steps)
    return result.losses, model.state_dict()


@pytest.mark.parametrize("strategy", STRATEGY_CHOICES)
def test_factory_matches_direct_construction_bit_identically(
    tiny_mae_cfg, strategy
):
    """Factory vs oracle (the name dates from when the reference was a
    direct constructor call): every strategy on ``World(4)`` equals the
    world-1 DDP engine accumulating the same four microbatches — the
    layout ``(total=4, chunk=4)``. HYBRID at shard size 2 realizes
    ``chunk=2``, which no single-stage row can; its oracle is one shard
    group accumulating the other's microbatches as a second round."""
    world = World(4, ranks_per_node=2)
    kwargs = {"shard_size": 2} if strategy == "hybrid_shard" else {}
    losses_f, state_f = _train(
        lambda m: make_engine(m, strategy, world=world, **kwargs), tiny_mae_cfg
    )
    if strategy == "hybrid_shard":
        oracle = lambda m: make_engine(  # noqa: E731
            m, "HYBRID_2GPUs", world=World(2), grad_accum_steps=2
        )
    else:
        oracle = lambda m: make_engine(  # noqa: E731
            m, "ddp", world=World(1), grad_accum_steps=4
        )
    losses_o, state_o = _train(oracle, tiny_mae_cfg)
    assert losses_f == losses_o
    for k in state_f:
        np.testing.assert_array_equal(state_f[k], state_o[k])


def test_factory_dispatches_to_the_right_engine_kind():
    world = World(4, ranks_per_node=2)
    ddp = make_engine(_tiny_model(), "ddp", world=world)
    assert type(ddp) is EngineCore and ddp.kind == "ddp"
    assert ddp.units is None and ddp.shard_size is None
    for s in ("no_shard", "full_shard", "shard_grad_op"):
        eng = make_engine(_tiny_model(), s, world=world)
        assert type(eng) is EngineCore and eng.kind == "fsdp"
        assert eng.strategy.value.lower() == s
    hybrid = make_engine(_tiny_model(), "hybrid_shard", world=world, shard_size=2)
    assert hybrid.strategy is ShardingStrategy.HYBRID_SHARD
    assert hybrid.shard_size == 2


def _tiny_model():
    from repro.core.config import MAEConfig, ViTConfig

    cfg = MAEConfig(
        encoder=ViTConfig(
            name="t", width=16, depth=1, mlp=32, heads=4, patch=8, img_size=16
        ),
        dec_width=16,
        dec_depth=1,
        dec_heads=4,
        mask_ratio=0.5,
    )
    return MaskedAutoencoder(cfg, rng=np.random.default_rng(0))


def test_paper_label_implies_shard_size():
    eng = make_engine(_tiny_model(), "HYBRID_2GPUs", world=World(4, ranks_per_node=2))
    assert eng.strategy is ShardingStrategy.HYBRID_SHARD
    assert eng.shard_size == 2


def test_conflicting_shard_size_rejected():
    with pytest.raises(ValueError, match="implies shard_size=2"):
        make_engine(
            _tiny_model(),
            "HYBRID_2GPUs",
            world=World(4, ranks_per_node=2),
            shard_size=4,
        )


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        make_engine(_tiny_model(), "mystery_shard", world=World(4, ranks_per_node=2))


def test_overrides_apply_on_top_of_config():
    cfg = EngineConfig(bucket_cap_bytes=1024)
    eng = make_engine(
        _tiny_model(),
        "ddp",
        world=World(2, ranks_per_node=2),
        config=cfg,
        bucket_cap_bytes=2048,
    )
    assert eng.config.bucket_cap_bytes == 2048


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(bucket_cap_bytes=0)
    with pytest.raises(ValueError):
        EngineConfig(first_bucket_cap_bytes=-1)
    with pytest.raises(ValueError):
        EngineConfig(shard_size=0)
    # None first bucket cap is legal (single flat bucket scheme).
    EngineConfig(first_bucket_cap_bytes=None)


def test_engines_default_to_the_shared_null_bus():
    eng = make_engine(_tiny_model(), "ddp", world=World(2, ranks_per_node=2))
    assert eng.telemetry is NULL_BUS
    assert not eng.telemetry.enabled


def test_unknown_kwargs_still_raise_type_error():
    world = World(2, ranks_per_node=2)
    with pytest.raises(TypeError, match="bukcet_cap_mb"):
        make_engine(_tiny_model(), "ddp", world=world, bukcet_cap_mb=1)
    with pytest.raises(TypeError, match="sharding_strategy"):
        make_engine(
            _tiny_model(), world=world, sharding_strategy=ShardingStrategy.FULL_SHARD
        )


def test_trainer_lifecycle_names_align(tiny_mae_cfg, tmp_path):
    # state_dict/load_state_dict round-trips a trainer across engines.
    rng = np.random.default_rng(0)
    images = rng.standard_normal((64, 3, 16, 16))
    world = World(4, ranks_per_node=2)

    model_a = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(1))
    trainer_a = MAEPretrainer(
        make_engine(model_a, "full_shard", world=world), images, global_batch=16,
        seed=0,
    )
    trainer_a.run(2)
    sd = trainer_a.state_dict()

    model_b = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(2))
    trainer_b = MAEPretrainer(
        make_engine(model_b, "full_shard", world=world), images, global_batch=16,
        seed=0,
    )
    trainer_b.load_state_dict(sd)
    assert trainer_b.engine.step_count == 2
    # Continuing from the restored state matches continuing the original.
    cont_a = trainer_a.run(2, start_step=2).losses
    cont_b = trainer_b.run(2, start_step=2).losses
    assert cont_a == cont_b


def test_facade_exports_blessed_surface():
    import repro
    from repro import core, telemetry

    for name in (
        "make_engine", "EngineConfig", "TelemetryBus", "RecordingSink",
        "JsonlSink", "RunReport", "AdamW",
    ):
        assert hasattr(repro, name), name
        assert name in repro.__all__, name
    # What no program imports from the facade stays in its subpackage.
    for package, names in (
        (core, ("STRATEGY_CHOICES", "SimCLRPretrainer", "TrainResult")),
        (telemetry, ("NullSink", "StepStats", "NULL_BUS", "write_span_trace")),
    ):
        for name in names:
            assert name in package.__all__ and name not in repro.__all__, name
