"""Shared fixtures for the execution-backend suites.

Everything here is module-level because spawn workers unpickle step
functions by reference: a closure or lambda would raise the backend's
friendly ``TypeError`` instead of running. ``tests`` is a package, so
``tests.test_backend.helpers`` resolves inside spawned children too.
"""

from __future__ import annotations

import os

import numpy as np

from repro.comm.world import World
from repro.core.config import get_mae_config
from repro.core.engine import EngineConfig, make_engine
from repro.core.trainer import _mae_step_fn
from repro.models.mae import MaskedAutoencoder
from repro.models.workspace import Workspace

CFG = get_mae_config("proxy-base")

mae_step = _mae_step_fn


def crash_step(model, micro):
    """Simulated hard rank failure: the process dies without replying."""
    os._exit(3)


def blas_threads_step(model, micro):
    """Reports, as the loss, the BLAS pool size the worker started with."""
    return float(os.environ.get("OPENBLAS_NUM_THREADS", "0"))


def failing_step(model, micro):
    """A step_fn that raises after starting the forward pass."""
    imgs, noise = micro
    model.forward(imgs, noise=noise)
    raise ValueError("injected step failure")


def mae_micros(world: int, k: int = 1, batch: int = 2, seed: int = 1) -> list:
    """Round-major microbatches for ``train_step`` (images + mask noise)."""
    enc = CFG.encoder
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(world * k):
        imgs = rng.standard_normal((batch, enc.in_chans, enc.img_size, enc.img_size))
        noise = rng.random((batch, enc.n_patches))
        out.append((imgs, noise))
    return out


def build_engine(
    backend: str,
    strategy: str = "ddp",
    world: int = 2,
    k: int = 1,
    precision: str = "fp32",
    seed: int = 7,
    **config_kwargs,
):
    """One proxy-base MAE engine with the backend/strategy under test."""
    model = MaskedAutoencoder(CFG, rng=np.random.default_rng(seed))
    model.use_workspace(Workspace())
    cfg = EngineConfig(
        backend=backend,
        grad_accum_steps=k,
        precision=precision,
        **config_kwargs,
    )
    return make_engine(model, strategy, world=World(world), config=cfg)


def run_steps(engine, world: int, k: int, steps: int = 2, batch: int = 2):
    """Drive ``steps`` optimizer steps; return (losses, state_dict copy)."""
    data = mae_micros(world, k, batch=batch)
    losses = [engine.train_step(data, mae_step) for _ in range(steps)]
    state = {name: np.array(v) for name, v in engine.model.state_dict().items()}
    return losses, state


def assert_states_equal(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


def repro_shm_segments() -> list[str]:
    """Names of live repro-owned segments in /dev/shm (Linux)."""
    shm = "/dev/shm"
    if not os.path.isdir(shm):  # pragma: no cover - non-Linux fallback
        return []
    return sorted(f for f in os.listdir(shm) if f.startswith("repro-"))
