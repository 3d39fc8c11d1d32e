"""``cache_dir`` means one thing in every downstream driver.

The default is :data:`DEFAULT_CACHE_DIR`; ``None`` means no cache: the
suite is pretrained in memory and no checkpoint is written anywhere.
"""

import inspect
import os

import numpy as np

from repro.data.datasets import ArrayDataset, DatasetSpec, SplitDataset
from repro.experiments.downstream import DEFAULT_CACHE_DIR, DownstreamRecipe, pretrain_suite
from repro.experiments.fig5 import run_fig5
from repro.experiments.ssl_compare import run_ssl_compare
from repro.experiments.table3 import run_table3

TINY = DownstreamRecipe(corpus_images=32, global_batch=16, steps=2, model_names=("proxy-base",))


def _listing(root):
    if not os.path.isdir(root):
        return set()
    return {os.path.join(d, f) for d, _, files in os.walk(root) for f in files}


def test_every_driver_defaults_to_the_default_cache():
    for driver in (pretrain_suite, run_fig5, run_table3, run_ssl_compare):
        default = inspect.signature(driver).parameters["cache_dir"].default
        assert default == DEFAULT_CACHE_DIR, driver.__name__


def test_none_writes_nothing_outside_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = _listing(DEFAULT_CACHE_DIR)
    rng = np.random.default_rng(0)
    toy = SplitDataset(
        spec=DatasetSpec("toy", 2, 8, 4, 1, 0.1, 2, 8, 4),
        train=ArrayDataset(rng.standard_normal((8, 3, 32, 32)), np.arange(8) % 2),
        test=ArrayDataset(rng.standard_normal((4, 3, 32, 32)), np.arange(4) % 2),
    )
    fig5 = run_fig5(TINY, cache_dir=None)
    ssl = run_ssl_compare(TINY, datasets=("toy",), cache_dir=None, probe_data={"toy": toy})
    assert len(fig5.suite["proxy-base"].losses) == TINY.steps
    assert set(ssl.methods) == {"mae", "simclr", "random-init"}
    assert _listing(DEFAULT_CACHE_DIR) == before
    assert list(tmp_path.iterdir()) == []
