"""Gradient checks and invariants for the functional primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.models import functional as F
from tests.test_models import softmax as S


def _numeric_grad(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        fp = fn()
        x[i] = old - eps
        fm = fn()
        x[i] = old
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


class TestGelu:
    def test_known_values(self):
        y, _ = F.gelu(np.array([0.0]))
        assert y[0] == pytest.approx(0.0)
        y, _ = F.gelu(np.array([100.0]))
        assert y[0] == pytest.approx(100.0)  # ~identity for large x
        y, _ = F.gelu(np.array([-100.0]))
        assert y[0] == pytest.approx(0.0, abs=1e-6)

    def test_gradcheck(self, rng):
        x = rng.standard_normal((3, 4))
        dout = rng.standard_normal((3, 4))
        y, t = F.gelu(x)
        dx = F.gelu_backward(dout, x, t)
        num = _numeric_grad(lambda: float((F.gelu(x)[0] * dout).sum()), x)
        np.testing.assert_allclose(dx, num, rtol=1e-5, atol=1e-7)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        y = S.softmax(rng.standard_normal((5, 7)))
        np.testing.assert_allclose(y.sum(axis=-1), 1.0)
        assert np.all(y > 0)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((4, 6))
        np.testing.assert_allclose(S.softmax(x), S.softmax(x + 100.0), atol=1e-12)

    def test_overflow_safe(self):
        y = S.softmax(np.array([[1e4, 0.0]]))
        assert np.isfinite(y).all()

    def test_gradcheck(self, rng):
        x = rng.standard_normal((2, 5))
        dout = rng.standard_normal((2, 5))
        y = S.softmax(x)
        dx = S.softmax_backward(dout, y)
        num = _numeric_grad(lambda: float((S.softmax(x) * dout).sum()), x)
        np.testing.assert_allclose(dx, num, rtol=1e-5, atol=1e-7)

    @given(
        x=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=3, max_side=6),
            elements=st.floats(-50, 50),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_simplex_property(self, x):
        y = S.softmax(x)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9)
        assert (y >= 0).all()


class TestLayerNorm:
    def test_output_standardized(self, rng):
        x = rng.standard_normal((6, 32)) * 5 + 3
        gamma, beta = np.ones(32), np.zeros(32)
        y, _ = F.layernorm(x, gamma, beta)
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-3)

    def test_affine_applied(self, rng):
        x = rng.standard_normal((2, 8))
        y, _ = F.layernorm(x, np.full(8, 2.0), np.full(8, 1.0))
        y0, _ = F.layernorm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(y, 2.0 * y0 + 1.0)

    def test_gradcheck_all_inputs(self, rng):
        x = rng.standard_normal((3, 6))
        gamma = rng.standard_normal(6)
        beta = rng.standard_normal(6)
        dout = rng.standard_normal((3, 6))
        _, cache = F.layernorm(x, gamma, beta)
        dx, dgamma, dbeta = F.layernorm_backward(dout, gamma, cache)

        def loss():
            y, _ = F.layernorm(x, gamma, beta)
            return float((y * dout).sum())

        np.testing.assert_allclose(dx, _numeric_grad(loss, x), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(
            dgamma, _numeric_grad(loss, gamma), rtol=1e-5, atol=1e-7
        )
        np.testing.assert_allclose(
            dbeta, _numeric_grad(loss, beta), rtol=1e-5, atol=1e-7
        )
