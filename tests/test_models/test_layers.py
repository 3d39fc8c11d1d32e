"""Tests for Linear / LayerNorm / GELU / Dropout / MLP layers."""

import numpy as np
import pytest

from repro.models.layers import GELU, MLP, LayerNorm, Linear
from repro.models.module import Module, Parameter
from tests.conftest import central_difference_check


class Dropout(Module):
    """Inverted dropout. Identity when ``p == 0`` or in eval mode.

    No model trains with dropout, so the layer lives here with its tests.
    The mask RNG is supplied per call (or at construction), so dropout
    can be a function of the *sample*.
    """

    _cache_attrs = ("_mask",)

    def __init__(self, p: float = 0.0, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(
        self, x: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Apply inverted dropout (identity when p=0 or eval)."""
        if self.p == 0.0 or not self.training:
            self._mask = None
            return x
        gen = rng or self.rng
        if gen is None:
            raise RuntimeError("Dropout with p > 0 requires an RNG")
        keep = 1.0 - self.p
        self._mask = (gen.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Propagate gradients through the kept units only."""
        if self._mask is None:
            return dout
        mask, self._mask = self._mask, None
        return dout * mask


class TestModuleBase:
    def test_parameter_registration_order(self, rng):
        lin = Linear(3, 4, rng=rng)
        names = [n for n, _ in lin.named_parameters()]
        assert names == ["weight", "bias"]

    def test_nested_registration(self, rng):
        mlp = MLP(4, 8, rng=rng)
        names = [n for n, _ in mlp.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_state_dict_roundtrip(self, rng):
        a, b = Linear(3, 4, rng=np.random.default_rng(1)), Linear(
            3, 4, rng=np.random.default_rng(2)
        )
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_state_dict_mismatch_raises(self, rng):
        lin = Linear(3, 4, rng=rng)
        with pytest.raises(KeyError, match="mismatch"):
            lin.load_state_dict({"weight": lin.weight.data})
        with pytest.raises(ValueError, match="shape"):
            lin.load_state_dict(
                {"weight": np.zeros((1, 1)), "bias": lin.bias.data}
            )

    def test_zero_grad(self, rng):
        lin = Linear(2, 2, rng=rng)
        lin.weight.grad[...] = 5.0
        lin.zero_grad()
        assert np.all(lin.weight.grad == 0)

    def test_train_eval_propagates(self, rng):
        mlp = MLP(4, 8, rng=rng)
        mlp.eval()
        assert not mlp.fc1.training
        mlp.train()
        assert mlp.fc2.training

    def test_parameter_accumulate_shape_check(self):
        p = Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            p.accumulate(np.zeros(3))

    def test_n_params(self, rng):
        assert Linear(3, 4, rng=rng).n_params() == 3 * 4 + 4

    def test_base_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module().forward()


class TestLinear:
    def test_forward_matches_numpy(self, rng):
        lin = Linear(3, 5, rng=rng)
        x = rng.standard_normal((4, 3))
        np.testing.assert_allclose(lin(x), x @ lin.weight.data + lin.bias.data)

    def test_leading_dims_arbitrary(self, rng):
        lin = Linear(3, 5, rng=rng)
        x = rng.standard_normal((2, 7, 3))
        assert lin(x).shape == (2, 7, 5)

    def test_no_bias(self, rng):
        lin = Linear(3, 5, rng=rng, bias=False)
        assert [n for n, _ in lin.named_parameters()] == ["weight"]

    def test_wrong_input_dim(self, rng):
        with pytest.raises(ValueError, match="trailing dim"):
            Linear(3, 5, rng=rng)(rng.standard_normal((4, 2)))

    def test_backward_before_forward(self, rng):
        with pytest.raises(RuntimeError):
            Linear(3, 5, rng=rng).backward(rng.standard_normal((4, 5)))

    def test_gradcheck(self, rng):
        lin = Linear(4, 3, rng=rng)
        x = rng.standard_normal((5, 4))
        dout = rng.standard_normal((5, 3))

        def loss():
            return float((lin(x) * dout).sum())

        lin.zero_grad()
        lin(x)
        dx = lin.backward(dout)
        central_difference_check(list(lin.named_parameters()), loss, rng)
        # input gradient
        num = np.zeros_like(x)
        eps = 1e-6
        for i in np.ndindex(x.shape):
            old = x[i]
            x[i] = old + eps
            lp = loss()
            x[i] = old - eps
            lm = loss()
            x[i] = old
            num[i] = (lp - lm) / (2 * eps)
        np.testing.assert_allclose(dx, num, rtol=1e-5, atol=1e-7)

    def test_gradient_accumulates_across_backwards(self, rng):
        lin = Linear(2, 2, rng=rng)
        x = rng.standard_normal((3, 2))
        dout = rng.standard_normal((3, 2))
        lin(x)
        lin.backward(dout)
        g1 = lin.weight.grad.copy()
        lin(x)
        lin.backward(dout)
        np.testing.assert_allclose(lin.weight.grad, 2 * g1)


class TestLayerNormLayer:
    def test_gradcheck(self, rng):
        ln = LayerNorm(6)
        ln.gamma.data[...] = rng.standard_normal(6)
        ln.beta.data[...] = rng.standard_normal(6)
        x = rng.standard_normal((4, 6))
        dout = rng.standard_normal((4, 6))

        def loss():
            return float((ln(x) * dout).sum())

        ln.zero_grad()
        ln(x)
        ln.backward(dout)
        central_difference_check(list(ln.named_parameters()), loss, rng, 4)

    def test_wrong_dim(self, rng):
        with pytest.raises(ValueError):
            LayerNorm(6)(rng.standard_normal((2, 5)))


class TestDropout:
    def test_identity_when_p_zero(self, rng):
        d = Dropout(0.0)
        x = rng.standard_normal((3, 3))
        assert d(x) is x

    def test_identity_in_eval(self, rng):
        d = Dropout(0.5, rng=rng)
        d.eval()
        x = rng.standard_normal((3, 3))
        assert d(x) is x

    def test_inverted_scaling_preserves_mean(self, rng):
        d = Dropout(0.3, rng=rng)
        x = np.ones((200, 200))
        y = d(x)
        assert y.mean() == pytest.approx(1.0, abs=0.02)

    def test_backward_masks_gradient(self, rng):
        d = Dropout(0.5, rng=rng)
        x = np.ones((10, 10))
        y = d(x)
        dx = d.backward(np.ones_like(x))
        # Gradient is zero exactly where the output was zeroed.
        np.testing.assert_array_equal(dx == 0, y == 0)

    def test_requires_rng(self):
        with pytest.raises(RuntimeError, match="RNG"):
            Dropout(0.5)(np.ones((2, 2)))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestMLP:
    def test_shapes(self, rng):
        mlp = MLP(8, 32, rng=rng)
        x = rng.standard_normal((2, 5, 8))
        assert mlp(x).shape == (2, 5, 8)

    def test_gradcheck(self, rng):
        mlp = MLP(4, 8, rng=rng)
        x = rng.standard_normal((3, 4))
        dout = rng.standard_normal((3, 4))

        def loss():
            return float((mlp(x) * dout).sum())

        mlp.zero_grad()
        mlp(x)
        mlp.backward(dout)
        central_difference_check(list(mlp.named_parameters()), loss, rng)


class TestGELULayer:
    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            GELU().backward(np.ones(3))
