"""Tests for optimizer checkpointing (state_dict round trips)."""

import numpy as np
import pytest

from repro.models.module import Parameter
from repro.optim import LARS, AdamW
from tests.test_optim.sgd import SGD


def _params(rng, n=3):
    out = []
    for _ in range(n):
        p = Parameter(rng.standard_normal((4, 2)))
        p.grad[...] = rng.standard_normal((4, 2))
        out.append(p)
    return out


@pytest.mark.parametrize("cls", [AdamW, LARS, SGD])
class TestOptimizerStateDict:
    def test_roundtrip_resumes_identically(self, rng, cls):
        kwargs = {"momentum": 0.9} if cls in (LARS, SGD) else {}
        params_a = _params(np.random.default_rng(0))
        opt_a = cls(params_a, lr=0.01, **kwargs)
        for _ in range(3):
            for p in params_a:
                p.grad[...] = rng.standard_normal(p.data.shape)
            opt_a.step()
        snapshot = opt_a.state_dict()
        data_snapshot = [p.data.copy() for p in params_a]

        # Fresh optimizer + restored state must continue identically.
        params_b = _params(np.random.default_rng(99))
        for p, d in zip(params_b, data_snapshot):
            p.data[...] = d
        opt_b = cls(params_b, lr=0.01, **kwargs)
        opt_b.load_state_dict(snapshot)
        assert opt_b.t == opt_a.t

        g = [rng.standard_normal(p.data.shape) for p in params_a]
        for pa, pb, gi in zip(params_a, params_b, g):
            pa.grad[...] = gi
            pb.grad[...] = gi
        opt_a.step()
        opt_b.step()
        for pa, pb in zip(params_a, params_b):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-15)

    def test_snapshot_isolated_from_future_steps(self, rng, cls):
        params = _params(rng)
        opt = cls(params, lr=0.1)
        opt.step()
        snap = opt.state_dict()
        before = {
            i: {k: v.copy() for k, v in slot.items()}
            for i, slot in enumerate(snap["slots"])
        }
        opt.step()
        for i, slot in before.items():
            for k, v in slot.items():
                np.testing.assert_array_equal(snap["slots"][i][k], v)

    def test_validation(self, rng, cls):
        opt = cls(_params(rng), lr=0.1)
        opt.step()
        sd = opt.state_dict()
        with pytest.raises(ValueError, match="slots"):
            cls(_params(rng, n=2), lr=0.1).load_state_dict(sd)
        bad = opt.state_dict()
        if bad["slots"][0]:
            key = next(iter(bad["slots"][0]))
            bad["slots"][0][key] = np.zeros(7)
            with pytest.raises(ValueError, match="shape"):
                cls(_params(rng), lr=0.1).load_state_dict(bad)
