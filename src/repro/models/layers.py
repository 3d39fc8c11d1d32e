"""Core layers: Linear, LayerNorm, GELU, MLP.

Each layer's ``forward`` caches exactly what its hand-derived ``backward``
needs; ``backward`` hands its parameter gradients to the parameters —
written on a micro's first contribution, added after it (see
:class:`~repro.models.module.Parameter`) — and returns the input
gradient. Batch (leading) dimensions are arbitrary: every layer operates
on the trailing feature axis.

Hot-path discipline: all large results are produced with ``out=`` into
buffers from :meth:`Module._buf`, so with a
:class:`~repro.models.workspace.Workspace` attached a steady-state step
allocates nothing activation-sized (``test_models/test_steady_state.py``).
Matmuls flatten leading axes first: one ``(B·N, in) @ (in, out)`` GEMM is
substantially faster than a stacked batch of ``(N, in)`` GEMMs. The
original allocating implementations survive as the oracle in
``tests/test_models/reference.py``.
"""

from __future__ import annotations

import numpy as np

from repro.models import functional as F
from repro.models import init
from repro.models.module import DEFAULT_DTYPE, Module, Parameter

__all__ = ["Linear", "LayerNorm", "GELU", "MLP"]


class Linear(Module):
    """Affine map on the trailing axis: ``y = x @ W + b``.

    Weight layout is ``(in_features, out_features)`` so the forward matmul
    runs on contiguous operands without transposition (cache-friendly per
    the optimization guides).

    Tensor parallelism: layers constructed with ``tp_shard=True`` (the
    attention qkv/proj and MLP fc1/fc2 GEMMs) route their forward output
    and backward input-gradient through the attached
    :class:`~repro.mesh.tp.TPContext`'s load-bearing column-shard
    all-gather (see :mod:`repro.mesh.tp`); dW/db stay sharded by
    construction on the tp axis, so no gradient collective is needed.
    """

    _cache_attrs = ("_x2", "_lead")

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        bias: bool = True,
        dtype=DEFAULT_DTYPE,
        tp_shard: bool = False,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.tp_shard = tp_shard
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = Parameter(
            init.xavier_uniform(rng, in_features, out_features, dtype=dtype)
        )
        self.has_bias = bias
        if bias:
            self.bias = Parameter(init.zeros(out_features, dtype=dtype))
        self._x2: np.ndarray | None = None
        self._lead: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``x @ W + b`` on the trailing axis; caches the flattened input."""
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected trailing dim {self.in_features}, got {x.shape}"
            )
        # One big GEMM over the flattened leading axes. reshape copies
        # only when x is a non-contiguous view (and backward reuses the
        # cached 2-D array either way).
        x2 = x.reshape(-1, self.in_features)
        self._x2 = x2
        self._lead = x.shape[:-1]
        res_dtype = np.result_type(x.dtype, self.weight.data.dtype)
        y = self._buf("y", x.shape[:-1] + (self.out_features,), res_dtype)
        y2 = y.reshape(-1, self.out_features)
        np.matmul(x2, self.weight.data, out=y2)
        ctx = self._tp_ctx
        if ctx is not None and self.tp_shard:
            # Column-parallel output: each tp rank owns a column block;
            # the gather reassembles the full activation bit-exactly.
            ctx.reassemble(y2)
        if self.has_bias:
            y += self.bias.data
        return y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Contribute dW/db; return ``dout @ W.T``."""
        if self._x2 is None:
            raise RuntimeError("backward called before forward")
        x2 = self._x2
        d2 = dout.reshape(-1, self.out_features)
        w = self.weight
        if w.unwritten:
            # A micro's first contribution: the GEMM writes the gradient.
            np.matmul(x2.T, d2, out=w.grad)
            w.unwritten = False
        else:
            gw = self._buf("gw", w.shape, w.dtype)
            np.matmul(x2.T, d2, out=gw)
            w.accumulate(gw)
        if self.has_bias:
            gb = self._buf("gb", self.bias.shape, self.bias.dtype)
            d2.sum(axis=0, out=gb)
            self.bias.accumulate(gb)
        dx = self._buf(
            "dx", self._lead + (self.in_features,), np.result_type(d2, x2)
        )
        dx2 = dx.reshape(-1, self.in_features)
        np.matmul(d2, self.weight.data.T, out=dx2)
        ctx = self._tp_ctx
        if ctx is not None and self.tp_shard:
            # Row-parallel backward: each tp rank contributes a column
            # block of dx; the gather mirrors the forward reassembly.
            ctx.reassemble(dx2)
        self._x2 = None
        self._lead = None
        return dx


class LayerNorm(Module):
    """LayerNorm over the trailing axis with learned affine."""

    _cache_attrs = ("_cache",)

    def __init__(self, dim: int, eps: float = 1e-6, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(init.ones(dim, dtype=dtype))
        self.beta = Parameter(init.zeros(dim, dtype=dtype))
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Normalize the trailing axis and apply the affine."""
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected trailing dim {self.dim}, got {x.shape}")
        res_dtype = np.result_type(x.dtype, self.gamma.data.dtype)
        y = self._buf("y", x.shape, res_dtype)
        xhat = self._buf("xhat", x.shape, res_dtype)
        y, self._cache = F.layernorm(
            x, self.gamma.data, self.beta.data, self.eps, out=y, xhat_out=xhat
        )
        return y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """LayerNorm backward; contributes dgamma/dbeta."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        dx = self._buf("dx", dout.shape, dout.dtype)
        scratch = self._buf("dxhat", dout.shape, dout.dtype)
        dx, dgamma, dbeta = F.layernorm_backward(
            dout, self.gamma.data, self._cache, out=dx, scratch=scratch
        )
        self.gamma.accumulate(dgamma)
        self.beta.accumulate(dbeta)
        self._cache = None
        return dx


class GELU(Module):
    """Tanh-approximated GELU activation."""

    _cache_attrs = ("_cache",)

    def __init__(self):
        super().__init__()
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Tanh-GELU; caches input and inner tanh."""
        y = self._buf("y", x.shape, x.dtype)
        t = self._buf("t", x.shape, x.dtype)
        y, t = F.gelu(x, out=y, t_out=t)
        self._cache = (x, t)
        return y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """GELU backward from the cached tanh."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, t = self._cache
        self._cache = None
        dx = self._buf("dx", x.shape, x.dtype)
        scratch = self._buf("scratch", x.shape, x.dtype)
        return F.gelu_backward(dout, x, t, out=dx, scratch=scratch)


class MLP(Module):
    """Transformer feed-forward: Linear -> GELU -> Linear."""

    def __init__(
        self,
        width: int,
        hidden: int,
        rng: np.random.Generator | None = None,
        dtype=DEFAULT_DTYPE,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.fc1 = Linear(width, hidden, rng=rng, dtype=dtype, tp_shard=True)
        self.act = GELU()
        self.fc2 = Linear(hidden, width, rng=rng, dtype=dtype, tp_shard=True)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """fc2(gelu(fc1(x)))."""
        return self.fc2(self.act(self.fc1(x)))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Chain backward through fc2, GELU, fc1."""
        return self.fc1.backward(self.act.backward(self.fc2.backward(dout)))
