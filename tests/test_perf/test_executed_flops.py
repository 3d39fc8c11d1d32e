"""The unit table's FLOPs are the GEMM FLOPs the NumPy models execute.

Every GEMM of the models runs through ``np.matmul`` in
:mod:`repro.models.layers` (``Linear`` forward, weight and input
gradients) or :mod:`repro.models.attention` (QK^T, AV and their four
backward products). The ``counted`` fixture swaps those two modules'
``np`` for a proxy whose ``matmul`` adds 2 FLOPs per multiply-add, for
the test only; nothing under ``src/`` counts. Each case compares the
count with :func:`repro.perf.compute_model.forward_flops` and
:data:`~repro.perf.compute_model.BACKWARD_RATIO` by integer equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PROXY_VARIANTS, get_mae_config, get_vit_config
from repro.models import MaskedAutoencoder, VisionTransformer, attention, layers
from repro.perf.compute_model import BACKWARD_RATIO, forward_flops

BATCH = 4
CASES = [(name, size) for name in PROXY_VARIANTS for size in (32, 64)]


class _CountingNumpy:
    """``numpy``, except that ``matmul`` tallies its FLOPs."""

    def __init__(self):
        self.flops = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, *args, **kwargs):
        out = np.matmul(a, b, *args, **kwargs)
        self.flops += 2 * out.size * a.shape[-1]
        return out


@pytest.fixture
def counted(monkeypatch) -> _CountingNumpy:
    proxy = _CountingNumpy()
    monkeypatch.setattr(layers, "np", proxy)
    monkeypatch.setattr(attention, "np", proxy)
    return proxy


def _images(size: int) -> np.ndarray:
    return np.random.default_rng(1).standard_normal((BATCH, 3, size, size))


@pytest.mark.parametrize("name,img_size", CASES)
def test_mae_forward_and_backward_flops_equal_the_executed(counted, name, img_size):
    cfg = get_mae_config(name, img_size=img_size)
    model = MaskedAutoencoder(cfg, rng=np.random.default_rng(0))
    model.forward(_images(img_size))
    forward, counted.flops = counted.flops, 0
    model.backward()
    assert forward == BATCH * forward_flops(cfg)
    assert counted.flops == BACKWARD_RATIO * forward


@pytest.mark.parametrize("name,img_size", CASES)
def test_vit_encoder_forward_flops_equal_the_executed(counted, name, img_size):
    cfg = get_vit_config(name, img_size=img_size)
    VisionTransformer(cfg, rng=np.random.default_rng(0)).forward(_images(img_size))
    assert counted.flops == BATCH * forward_flops(cfg)
