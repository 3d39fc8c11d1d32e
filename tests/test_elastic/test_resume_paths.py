"""One way back in: every restore is ``resume``'s reshard.

A preempted run resumed on the default schedule, and a resize
(ddp W=4 -> full_shard W=2 k=2) under both objectives and both
precisions, must each continue the uninterrupted run bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.engine import EngineConfig, make_engine
from repro.core.simclr_trainer import SimCLRPretrainer
from repro.core.trainer import MAEPretrainer
from repro.elastic.errors import PreemptedError
from repro.elastic.layout import ReductionLayout
from repro.elastic.preemption import PreemptionToken
from repro.models.mae import MaskedAutoencoder
from repro.models.simclr import SimCLRModel

LAYOUT4 = ReductionLayout(total=4, chunk=4)
GLOBAL_BATCH = 8


@pytest.fixture
def images():
    return np.random.default_rng(11).standard_normal((16, 3, 16, 16))


def _trainer(objective, tiny_mae_cfg, images, strategy, world_size, *,
             grad_accum_steps=1, precision="fp32", layout=None, init_seed=7,
             **kw):
    rng = np.random.default_rng(init_seed)
    if objective is MAEPretrainer:
        model = MaskedAutoencoder(tiny_mae_cfg, rng=rng)
    else:
        model = SimCLRModel(tiny_mae_cfg.encoder, proj_dim=8, rng=rng)
    engine = make_engine(
        model,
        strategy,
        world=World(size=world_size, ranks_per_node=world_size),
        config=EngineConfig(
            grad_accum_steps=grad_accum_steps,
            precision=precision,
            reduction_layout=layout,
        ),
    )
    return objective(engine, images, global_batch=GLOBAL_BATCH, seed=9, **kw)


def _preempt_at(trainer, step, total_steps):
    trainer.preemption.arm_at_step(step)
    with pytest.raises(PreemptedError):
        trainer.resume(total_steps)


def _assert_params_equal(a, b):
    for (n, p), (_, q) in zip(
        a.engine.model.named_parameters(), b.engine.model.named_parameters()
    ):
        np.testing.assert_array_equal(p.data, q.data, err_msg=n)


def test_default_schedule_resume_follows_the_uninterrupted_run(
    tiny_mae_cfg, images, tmp_path
):
    # No explicit schedule: the default cosine's peak must not be read
    # from an engine whose lr the restored snapshot already advanced.
    golden = _trainer(MAEPretrainer, tiny_mae_cfg, images, "ddp", 2)
    expect = golden.run(6)

    first = _trainer(
        MAEPretrainer, tiny_mae_cfg, images, "ddp", 2,
        checkpoint_dir=str(tmp_path), save_every=1,
        preemption=PreemptionToken(),
    )
    _preempt_at(first, 2, 6)
    resumed = _trainer(
        MAEPretrainer, tiny_mae_cfg, images, "ddp", 2, init_seed=99,
        checkpoint_dir=str(tmp_path), save_every=1,
    ).resume(6)

    assert [x.hex() for x in resumed.lrs] == [x.hex() for x in expect.lrs]
    assert [x.hex() for x in resumed.losses] == [x.hex() for x in expect.losses]


@pytest.mark.parametrize("precision", ["fp32", "bf16"])
@pytest.mark.parametrize(
    "objective", [MAEPretrainer, SimCLRPretrainer], ids=["mae", "simclr"]
)
def test_resized_resume_is_bit_identical(
    tiny_mae_cfg, images, tmp_path, objective, precision
):
    # ddp W=4 k=1 -> full_shard W=2 k=2: the reduction layout (4 micros,
    # one stage) is kept, so the reshard continues the trajectory.
    golden = _trainer(
        objective, tiny_mae_cfg, images, "ddp", 4,
        precision=precision, layout=LAYOUT4,
    )
    expect = golden.run(4)

    first = _trainer(
        objective, tiny_mae_cfg, images, "ddp", 4,
        precision=precision, layout=LAYOUT4,
        checkpoint_dir=str(tmp_path), save_every=1,
        preemption=PreemptionToken(),
    )
    _preempt_at(first, 2, 4)
    resized = _trainer(
        objective, tiny_mae_cfg, images, "full_shard", 2, grad_accum_steps=2,
        precision=precision, layout=LAYOUT4, init_seed=99,
        checkpoint_dir=str(tmp_path), save_every=1,
    )
    result = resized.resume(4)

    assert [x.hex() for x in result.losses] == [x.hex() for x in expect.losses]
    _assert_params_equal(resized, golden)
