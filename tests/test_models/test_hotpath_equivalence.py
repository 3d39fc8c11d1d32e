"""Fused hot-path kernels vs the naive reference oracle.

Every optimized kernel in :mod:`repro.models.functional`,
:mod:`repro.models.layers`, and :mod:`repro.models.attention` must match
the original allocating implementation preserved in
``tests/test_models/reference.py`` to atol=1e-6 (in practice ~1e-15: the
fused versions reorder evaluation, they do not change the math). Also
covers the :class:`Workspace` pool itself — reuse, reallocation, and
that a pooled model trains bit-compatibly with an unpooled one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import Workspace
from repro.models import functional as F
from repro.models.attention import MultiHeadSelfAttention
from repro.models.layers import GELU, Linear, LayerNorm
from tests.test_models import reference as R
from tests.test_models import softmax as S

pytestmark = pytest.mark.hotpath

ATOL = 1e-6


def _assert_close(got, want, msg=""):
    np.testing.assert_allclose(got, want, atol=ATOL, rtol=0, err_msg=msg)


class TestFunctionalEquivalence:
    """functional.* with out= buffers vs reference.*"""

    SHAPE = (3, 7, 24)

    def _x(self, rng, shape=None):
        return rng.standard_normal(shape or self.SHAPE)

    def test_gelu(self, rng):
        x = self._x(rng)
        y_ref, t_ref = R.gelu(x)
        y, t = F.gelu(x, out=np.empty_like(x), t_out=np.empty_like(x))
        _assert_close(y, y_ref)
        _assert_close(t, t_ref)

    def test_gelu_backward(self, rng):
        x, dout = self._x(rng), self._x(rng)
        _, t = R.gelu(x)
        want = R.gelu_backward(dout, x, t)
        got = F.gelu_backward(
            dout, x, t, out=np.empty_like(x), scratch=np.empty_like(x)
        )
        _assert_close(got, want)

    def test_softmax(self, rng):
        x = self._x(rng, (2, 4, 9, 9))
        _assert_close(S.softmax(x, out=np.empty_like(x)), R.softmax(x))

    def test_softmax_backward(self, rng):
        x, dout = self._x(rng, (2, 4, 9, 9)), self._x(rng, (2, 4, 9, 9))
        y = R.softmax(x)
        want = R.softmax_backward(dout, y)
        _assert_close(S.softmax_backward(dout, y, out=np.empty_like(x)), want)

    def test_softmax_backward_other_axis(self, rng):
        x, dout = self._x(rng), self._x(rng)
        y = R.softmax(x, axis=1)
        want = R.softmax_backward(dout, y, axis=1)
        _assert_close(S.softmax_backward(dout, y, axis=1), want)

    def test_layernorm(self, rng):
        x = self._x(rng)
        gamma = rng.standard_normal(self.SHAPE[-1])
        beta = rng.standard_normal(self.SHAPE[-1])
        y_ref, (xhat_ref, inv_ref) = R.layernorm(x, gamma, beta)
        y, (xhat, inv) = F.layernorm(
            x, gamma, beta, out=np.empty_like(x), xhat_out=np.empty_like(x)
        )
        _assert_close(y, y_ref)
        _assert_close(xhat, xhat_ref)
        _assert_close(inv, inv_ref)

    def test_layernorm_backward(self, rng):
        x, dout = self._x(rng), self._x(rng)
        gamma = rng.standard_normal(self.SHAPE[-1])
        beta = rng.standard_normal(self.SHAPE[-1])
        _, cache = R.layernorm(x, gamma, beta)
        dx_ref, dg_ref, db_ref = R.layernorm_backward(dout, gamma, cache)
        dx, dg, db = F.layernorm_backward(
            dout, gamma, cache, out=np.empty_like(x), scratch=np.empty_like(x)
        )
        _assert_close(dx, dx_ref)
        _assert_close(dg, dg_ref)
        _assert_close(db, db_ref)


class TestLayerEquivalence:
    """Optimized Linear/LayerNorm/GELU modules vs reference formulas."""

    @pytest.mark.parametrize("with_ws", [False, True])
    def test_linear(self, rng, with_ws):
        lin = Linear(6, 10, rng=np.random.default_rng(0))
        if with_ws:
            lin.use_workspace(Workspace())
        x = rng.standard_normal((4, 5, 6))
        dout = rng.standard_normal((4, 5, 10))
        y = lin(x)
        _assert_close(y, R.linear_forward(lin.weight.data, lin.bias.data, x))
        dx = lin.backward(dout)
        dx_ref, dw_ref, db_ref = R.linear_backward(lin.weight.data, x, dout)
        _assert_close(dx, dx_ref)
        _assert_close(lin.weight.grad, dw_ref)
        _assert_close(lin.bias.grad, db_ref)

    @pytest.mark.parametrize("with_ws", [False, True])
    def test_gelu_module(self, rng, with_ws):
        act = GELU()
        if with_ws:
            act.use_workspace(Workspace())
        x = rng.standard_normal((3, 8))
        dout = rng.standard_normal((3, 8))
        y_ref, t = R.gelu(x)
        _assert_close(act(x), y_ref)
        _assert_close(act.backward(dout), R.gelu_backward(dout, x, t))

    @pytest.mark.parametrize("with_ws", [False, True])
    def test_layernorm_module(self, rng, with_ws):
        ln = LayerNorm(12)
        if with_ws:
            ln.use_workspace(Workspace())
        x = rng.standard_normal((5, 12))
        dout = rng.standard_normal((5, 12))
        y_ref, cache = R.layernorm(x, ln.gamma.data, ln.beta.data, ln.eps)
        _assert_close(ln(x), y_ref)
        dx_ref, dg_ref, db_ref = R.layernorm_backward(dout, ln.gamma.data, cache)
        _assert_close(ln.backward(dout), dx_ref)
        _assert_close(ln.gamma.grad, dg_ref)
        _assert_close(ln.beta.grad, db_ref)


class TestAttentionEquivalence:
    """Fused attention vs the naive (seed) implementation."""

    def _pair(self, width=24, heads=4):
        fused = MultiHeadSelfAttention(width, heads, rng=np.random.default_rng(3))
        naive = R.NaiveAttention(width, heads, rng=np.random.default_rng(3))
        return fused, naive

    @pytest.mark.parametrize("with_ws", [False, True])
    def test_forward_backward(self, rng, with_ws):
        fused, naive = self._pair()
        if with_ws:
            fused.use_workspace(Workspace())
        x = rng.standard_normal((2, 9, 24))
        dout = rng.standard_normal((2, 9, 24))
        y_f = fused(x).copy()
        y_n = naive(x)
        _assert_close(y_f, y_n, "forward")
        dx_f = fused.backward(dout).copy()
        dx_n = naive.backward(dout)
        _assert_close(dx_f, dx_n, "dx")
        for (name, pf), (_, pn) in zip(
            fused.named_parameters(), naive.named_parameters()
        ):
            _assert_close(pf.grad, pn.grad, name)

    def test_single_head(self, rng):
        fused, naive = self._pair(width=16, heads=1)
        x = rng.standard_normal((3, 5, 16))
        _assert_close(fused(x), naive(x))

    def test_repeated_steps_with_workspace(self, rng):
        # Buffer reuse across steps must not leak state between them.
        fused, naive = self._pair()
        fused.use_workspace(Workspace())
        for _ in range(3):
            x = rng.standard_normal((2, 6, 24))
            dout = rng.standard_normal((2, 6, 24))
            fused.zero_grad()
            naive.zero_grad()
            _assert_close(fused(x), naive(x))
            _assert_close(fused.backward(dout), naive.backward(dout))
        ws = fused.workspace
        assert ws.hits > 0  # steady state actually reuses buffers
        assert ws.n_buffers() > 0

    def test_input_not_mutated(self, rng):
        # Scale folding happens inside the qkv buffer, never on the input.
        fused, _ = self._pair()
        fused.use_workspace(Workspace())
        x = rng.standard_normal((2, 5, 24))
        snap = x.copy()
        fused(x)
        fused.backward(rng.standard_normal((2, 5, 24)))
        np.testing.assert_array_equal(x, snap)


class TestWorkspace:
    def test_reuse_and_stats(self):
        ws = Workspace()
        a = ws.request(("k", 1), (4, 4), np.dtype(np.float64))
        b = ws.request(("k", 1), (4, 4), np.dtype(np.float64))
        assert a is b
        assert ws.misses == 1 and ws.hits == 1

    def test_realloc_on_shape_or_dtype_change(self):
        ws = Workspace()
        a = ws.request(("k", 1), (4, 4), np.dtype(np.float64))
        b = ws.request(("k", 1), (2, 8), np.dtype(np.float64))
        assert b.shape == (2, 8) and a is not b
        c = ws.request(("k", 1), (2, 8), np.dtype(np.float32))
        assert c.dtype == np.float32
        assert ws.misses == 3

    def test_distinct_keys_distinct_buffers(self):
        ws = Workspace()
        a = ws.request(("a", 0), (3,), np.dtype(np.float64))
        b = ws.request(("b", 0), (3,), np.dtype(np.float64))
        assert a is not b
        assert ws.n_buffers() == 2
        assert ws.nbytes() == a.nbytes + b.nbytes
        ws.clear()
        assert ws.n_buffers() == 0

    def test_attach_detach(self):
        lin = Linear(3, 3, rng=np.random.default_rng(0))
        ws = Workspace()
        lin.use_workspace(ws)
        assert lin.workspace is ws
        x = np.random.default_rng(0).standard_normal((2, 3))
        y1 = lin(x)
        y2 = lin(x)
        assert y1 is y2  # pooled: same buffer returned
        lin.use_workspace(None)
        assert lin.workspace is None
        assert lin(x) is not lin(x)
