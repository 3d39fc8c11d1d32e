"""Bit-exact pins of every downstream training trajectory.

Each protocol (linear probe, few-shot, segmentation probe, fine-tune in
its three forms, and the SSL comparison's probe) is run on a tiny
fixture and its per-epoch losses and metrics are compared by
``float.hex`` against literals recorded before the protocols shared one
training loop. A changed literal means a trajectory moved, not that the
pin is stale: the seeded epoch order, the schedule, the cross-entropy
and the metric must all be reproduced exactly.
"""

import numpy as np
import pytest

from repro.core.config import MAEConfig, ViTConfig
from repro.data.datasets import ArrayDataset, DatasetSpec, SplitDataset
from repro.data.segmentation import build_segmentation_dataset
from repro.eval.few_shot import few_shot_probe
from repro.eval.finetune import finetune
from repro.eval.linear_probe import linear_probe
from repro.eval.segmentation import segmentation_probe
from repro.experiments.downstream import DownstreamRecipe
from repro.experiments.ssl_compare import run_ssl_compare
from repro.models.mae import MaskedAutoencoder
from repro.models.simclr import SimCLRModel

VIT = ViTConfig(name="pin", width=16, depth=2, mlp=32, heads=4, patch=8, img_size=16)
MAE = MAEConfig(encoder=VIT, dec_width=16, dec_depth=1, dec_heads=4, mask_ratio=0.5)
SEED = 5


def _hex(values):
    return [float(v).hex() for v in values]


def _split(n_tr, n_te, n_classes, img_size, seed):
    """A class-separable toy split: class c is shifted by 0.3 * c."""
    rng = np.random.default_rng(seed)
    y_tr, y_te = np.arange(n_tr) % n_classes, np.arange(n_te) % n_classes
    x_tr = rng.standard_normal((n_tr, 3, img_size, img_size))
    x_te = rng.standard_normal((n_te, 3, img_size, img_size))
    x_tr += 0.3 * y_tr[:, None, None, None]
    x_te += 0.3 * y_te[:, None, None, None]
    return SplitDataset(
        spec=DatasetSpec("toy", n_classes, n_tr, n_te, 1, 0.1, n_classes, n_tr, n_te),
        train=ArrayDataset(x_tr, y_tr),
        test=ArrayDataset(x_te, y_te),
    )


@pytest.fixture(scope="module")
def mae():
    return MaskedAutoencoder(MAE, rng=np.random.default_rng(1))


@pytest.fixture(scope="module")
def data():
    return _split(36, 18, 6, 16, seed=3)


def _classification(r):
    return {"loss": _hex(r.train_losses), "top1": _hex(r.top1), "top5": _hex(r.top5)}


PINS = {"linear_probe": {"loss": ["0x1.bd1ea794bb8f2p+0",
                           "0x1.8430083486a1ep+0",
                           "0x1.68d877a5c7cbcp+0"],
                  "top1": ["0x1.1c71c71c71c72p-2",
                           "0x1.1c71c71c71c72p-2",
                           "0x1.1c71c71c71c72p-2"],
                  "top5": ["0x1.0000000000000p+0",
                           "0x1.0000000000000p+0",
                           "0x1.0000000000000p+0"]},
 "few_shot": [{"loss": ["0x1.cab0bfa2a2001p+0", "0x1.8ac18c98b7ccfp+0"],
               "top1": ["0x1.5555555555555p-2", "0x1.5555555555555p-2"],
               "top5": ["0x1.0000000000000p+0", "0x1.0000000000000p+0"]},
              {"loss": ["0x1.cab0bfa2a2002p+0", "0x1.a827222d58874p+0"],
               "top1": ["0x1.5555555555555p-2", "0x1.5555555555555p-2"],
               "top5": ["0x1.0000000000000p+0", "0x1.0000000000000p+0"]}],
 "segmentation": {"loss": ["0x1.c2e47db0ed115p+0",
                           "0x1.94144884ea670p+0",
                           "0x1.79699e0e4ae8fp+0"],
                  "miou": ["0x1.c6fb586fb5870p-3",
                           "0x1.64d9364d9364ep-3",
                           "0x1.64d9364d9364ep-3"],
                  "patch_acc": ["0x1.8000000000000p-2",
                                "0x1.5555555555555p-2",
                                "0x1.5555555555555p-2"]},
 "finetune_full": {"loss": ["0x1.04efc3752937cp+1", "0x1.e9bd11c4cede2p+0"],
                   "top1": ["0x1.8e38e38e38e39p-2", "0x1.c71c71c71c71cp-2"],
                   "top5": ["0x1.0000000000000p+0", "0x1.0000000000000p+0"]},
 "finetune_freeze1": {"loss": ["0x1.0909346e82c66p+1", "0x1.026d92f42bafcp+1"],
                      "top1": ["0x1.8e38e38e38e39p-2", "0x1.8e38e38e38e39p-2"],
                      "top5": ["0x1.e38e38e38e38ep-1", "0x1.e38e38e38e38ep-1"]},
 "finetune_scratch": {"loss": ["0x1.1f27edad11382p+1", "0x1.fd4c340ab3298p+0"],
                      "top1": ["0x1.c71c71c71c71cp-4", "0x1.c71c71c71c71cp-4"],
                      "top5": ["0x1.5555555555555p-1", "0x1.8e38e38e38e39p-1"]},
 "ssl_probe": {"loss": ["0x1.cab0bfa2a2002p+0",
                        "0x1.b08c92bfc74b2p+0",
                        "0x1.a5a4ad594cab5p+0"],
               "top1": ["0x1.1c71c71c71c72p-2",
                        "0x1.1c71c71c71c72p-2",
                        "0x1.1c71c71c71c72p-2"],
               "top5": ["0x1.0000000000000p+0",
                        "0x1.0000000000000p+0",
                        "0x1.0000000000000p+0"]},
 "ssl_compare": {"mae/toy": "0x1.aaaaaaaaaaaabp-1",
                 "random-init/toy": "0x1.d555555555555p-1",
                 "simclr/toy": "0x1.0000000000000p+0"}}


def _trajectories(mae, data, tmp_dir):
    out = {}
    out["linear_probe"] = _classification(
        linear_probe(mae, data, epochs=3, batch_size=8, seed=SEED)
    )
    fs = few_shot_probe(mae, data, shots=[1, 3], epochs=2, seed=SEED)
    out["few_shot"] = [_classification(p) for p in fs.probes]
    seg_train = build_segmentation_dataset(
        n_images=12, img_size=16, patch=8, n_scene_classes=6, seed=0
    )
    seg_test = build_segmentation_dataset(
        n_images=6, img_size=16, patch=8, n_scene_classes=6, seed=1
    )
    seg = segmentation_probe(mae, seg_train, seg_test, epochs=3, batch_size=4, seed=SEED)
    out["segmentation"] = {
        "loss": _hex(seg.train_losses),
        "miou": _hex(seg.miou),
        "patch_acc": _hex(seg.patch_acc),
    }
    for name, kw in (
        ("finetune_full", {}),
        ("finetune_freeze1", {"freeze_blocks": 1}),
        ("finetune_scratch", {"from_scratch": True}),
    ):
        out[name] = _classification(
            finetune(mae, data, epochs=2, batch_size=8, seed=SEED, **kw)
        )
    simclr = SimCLRModel(VIT, rng=np.random.default_rng(1))
    out["ssl_probe"] = _classification(linear_probe(simclr, data, epochs=3, seed=SEED))
    recipe = DownstreamRecipe(
        corpus_images=32, global_batch=16, steps=2, seed=SEED, model_names=("proxy-base",)
    )
    ssl = run_ssl_compare(
        recipe,
        datasets=("toy",),
        cache_dir=str(tmp_dir),
        probe_data={"toy": _split(24, 12, 4, 32, seed=4)},
    )
    out["ssl_compare"] = {f"{m}/{d}": v.hex() for (m, d), v in sorted(ssl.top1.items())}
    return out


def test_trajectories_are_bit_exact(mae, data, tmp_path):
    got = _trajectories(mae, data, tmp_path)
    assert got.keys() == PINS.keys()
    for name in PINS:
        assert got[name] == PINS[name], name
