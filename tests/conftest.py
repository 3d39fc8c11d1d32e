"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.comm.world import World
from repro.core.config import MAEConfig, ViTConfig

# One profile for every property test: examples are derived from the test
# itself, not from a random seed, so tier-1 sees the same inputs every run.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_vit_cfg() -> ViTConfig:
    """The smallest config exercising every code path (2 blocks)."""
    return ViTConfig(
        name="tiny-test", width=16, depth=2, mlp=32, heads=4, patch=8, img_size=16
    )


@pytest.fixture
def tiny_mae_cfg(tiny_vit_cfg: ViTConfig) -> MAEConfig:
    return MAEConfig(
        encoder=tiny_vit_cfg, dec_width=16, dec_depth=1, dec_heads=4, mask_ratio=0.5
    )


@pytest.fixture
def world4() -> World:
    return World(size=4, ranks_per_node=2)


@pytest.fixture
def world8() -> World:
    return World(size=8, ranks_per_node=8)


def central_difference_check(
    params, loss_fn, rng: np.random.Generator, samples_per_param: int = 2,
    eps: float = 1e-6, rtol: float = 1e-4, atol: float = 1e-7,
) -> None:
    """Compare analytic gradients (already accumulated in ``params``)
    against central differences at randomly sampled coordinates.

    Near-zero analytic gradients are compared with an absolute tolerance
    (finite differences bottom out around ``eps**2``).
    """
    for name, p in params:
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for _ in range(samples_per_param):
            i = int(rng.integers(flat.size))
            old = flat[i]
            flat[i] = old + eps
            lp = loss_fn()
            flat[i] = old - eps
            lm = loss_fn()
            flat[i] = old
            numeric = (lp - lm) / (2 * eps)
            analytic = gflat[i]
            denom = max(abs(numeric), abs(analytic))
            if denom < 1e-6:
                assert abs(numeric - analytic) < 1e-4, (
                    f"{name}[{i}]: numeric={numeric}, analytic={analytic}"
                )
            else:
                assert abs(numeric - analytic) <= atol + rtol * denom, (
                    f"{name}[{i}]: numeric={numeric}, analytic={analytic}"
                )
