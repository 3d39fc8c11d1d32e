"""Property-based cross-backend identity: inline is the oracle, always.

Hypothesis samples the engine configuration space — sharding strategy,
world size, grad-accum rounds, precision (bf16 runs exercise the
master-weight path) — and for every sampled point the process backend's
loss/parameter trajectory must be *bit-identical* to the inline
backend's. Spawning real processes per example is expensive, so the
example budget is small but the space is the one the ISSUE names;
the exhaustive fixed grid lives in ``test_process_backend.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_backend.helpers import (
    assert_states_equal,
    build_engine,
    run_steps,
)

CONFIGS = st.fixed_dictionaries(
    {
        "strategy": st.sampled_from(["ddp", "full_shard", "shard_grad_op", "no_shard"]),
        "world": st.sampled_from([1, 2]),
        "k": st.sampled_from([1, 2]),
        "precision": st.sampled_from(["fp32", "bf16"]),
    }
)


@given(cfg=CONFIGS)
@settings(max_examples=5, deadline=None)
def test_process_backend_matches_inline_everywhere(cfg):
    results = []
    for backend in ("inline", "process"):
        eng = build_engine(
            backend,
            cfg["strategy"],
            world=cfg["world"],
            k=cfg["k"],
            precision=cfg["precision"],
        )
        try:
            results.append(run_steps(eng, cfg["world"], cfg["k"], steps=2))
        finally:
            eng.close()
    (losses_i, state_i), (losses_p, state_p) = results
    assert losses_i == losses_p, cfg
    assert_states_equal(state_i, state_p)
