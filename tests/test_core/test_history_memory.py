"""A training block's memory peak does not depend on the run's length.

The trainer records every step's loss and learning rate. Held in Python
lists, each reallocation of a list inside a block put a copy of the
whole history into that block's ``tracemalloc`` peak, so the peak of a
block depended on how many steps came before it (the bimodal
``peak_alloc_mb`` of ``train_fsdp_proc``). This measures what the
benchmark's memory phase measures — one block of fixed work under
``tracemalloc`` with the garbage collector off — over consecutive
steady-state blocks of one run.
"""

import gc
import tracemalloc

import numpy as np

from repro.comm.world import World
from repro.core.config import MAEConfig, ViTConfig
from repro.core.engine import make_engine
from repro.core.trainer import MAEPretrainer
from repro.models.mae import MaskedAutoencoder
from repro.optim.schedules import CosineWithWarmup

CFG = MAEConfig(
    encoder=ViTConfig(
        name="tiny-test", width=16, depth=2, mlp=32, heads=4, patch=8, img_size=16
    ),
    dec_width=16,
    dec_depth=1,
    dec_heads=4,
    mask_ratio=0.5,
)
WARMUP = 16
BLOCKS = 60
STEPS_PER_BLOCK = 4
#: Bytes the block peaks may spread by: far below one copy of a
#: history of a few hundred steps.
SPREAD_BYTES = 512


def test_block_peaks_do_not_grow_with_the_run():
    engine = make_engine(
        MaskedAutoencoder(CFG, rng=np.random.default_rng(7)),
        "full_shard",
        world=World(2),
    )
    images = np.random.default_rng(11).standard_normal((32, 3, 16, 16))
    # One fixed schedule, as the benchmark uses: the default one depends
    # on how the run is cut into run() calls.
    schedule = CosineWithWarmup(base_lr=engine.lr, total_steps=10_000, warmup_steps=4)
    trainer = MAEPretrainer(engine, images, global_batch=8, schedule=schedule, seed=3)
    trainer.run(WARMUP)
    step = WARMUP
    peaks = []
    for _ in range(BLOCKS):
        # As the benchmark's memory phase: no cyclic collection in the block.
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            trainer.run(STEPS_PER_BLOCK, start_step=step)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            gc.enable()
        step += STEPS_PER_BLOCK
    assert max(peaks) - min(peaks) <= SPREAD_BYTES, sorted(peaks)
