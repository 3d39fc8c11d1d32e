"""Parameter and Module base classes.

A :class:`Parameter` owns a data array and a same-shaped gradient
accumulator. ``data`` may be *reassigned* to a view into an external flat
buffer — this is how the FSDP engine materializes all-gathered parameters
without copying (NumPy slicing yields views, so an optimizer writing the
flat buffer updates the module in place).

A :class:`Module` registers parameters and sub-modules automatically on
attribute assignment (like ``torch.nn.Module``) and exposes them in a
deterministic depth-first order, which the sharding layer relies on.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["Parameter", "Module", "DEFAULT_DTYPE"]

#: Library-wide default float dtype. float64 keeps the cross-strategy
#: numerical-equivalence guarantees tight; pass float32 for speed.
DEFAULT_DTYPE = np.float64


class Parameter:
    """A trainable tensor with a gradient accumulator."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        """Array shape."""
        return self.data.shape

    @property
    def size(self) -> int:
        """Number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """Array dtype."""
        return self.data.dtype

    def zero_grad(self) -> None:
        """Zero this parameter's gradient in place."""
        self.grad[...] = 0.0

    def accumulate(self, g: np.ndarray) -> None:
        """Add an incoming gradient contribution (broadcast-checked)."""
        if g.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"{self.name or '<unnamed>'} shape {self.data.shape}"
            )
        self.grad += g

    def __repr__(self) -> str:
        return f"Parameter({self.name or '<unnamed>'}, shape={self.data.shape})"


class Module:
    """Base class for layers with explicit forward/backward.

    Subclasses implement ``forward(*inputs)`` (caching what backward
    needs) and ``backward(dout)`` (returning the gradient with respect to
    the forward input and accumulating parameter gradients).
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_workspace", None)
        object.__setattr__(self, "_tp_ctx", None)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._params[name] = value
            if not value.name:
                value.name = name
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Depth-first (registration-order) traversal of all parameters."""
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters in deterministic depth-first order."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Depth-first iterator over self and submodules."""
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    def n_params(self) -> int:
        """Total parameter count of the module tree."""
        return sum(p.size for p in self.parameters())

    # -- state -----------------------------------------------------------

    def zero_grad(self) -> None:
        """Zero every parameter gradient."""
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively; returns self."""
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively; returns self."""
        return self.train(False)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of all parameters keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values by dotted name (strict)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            src = np.asarray(state[name])
            if src.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {src.shape} vs {p.data.shape}"
                )
            p.data[...] = src

    # -- scratch buffers -----------------------------------------------------

    def use_workspace(self, ws) -> "Module":
        """Attach (or detach, with ``None``) a scratch-buffer pool.

        Propagates recursively so every layer in the tree routes its
        hot-path temporaries through the same
        :class:`~repro.models.workspace.Workspace`. Returns self.
        """
        for m in self.modules():
            object.__setattr__(m, "_workspace", ws)
        return self

    @property
    def workspace(self):
        """The attached :class:`Workspace`, or ``None``."""
        return self._workspace

    def _buf(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialized scratch buffer owned by this module.

        Pool-backed (and therefore reused across steps) when a workspace
        is attached; a fresh ``np.empty`` otherwise. Contents must be
        fully overwritten before being read.
        """
        ws = self._workspace
        if ws is None:
            return np.empty(shape, dtype=dtype)
        return ws.request((id(self), tag), shape, np.dtype(dtype))

    # -- tensor parallelism --------------------------------------------------

    def use_tensor_parallel(self, ctx) -> "Module":
        """Attach (or detach, with ``None``) a tensor-parallel context.

        Propagates recursively, like :meth:`use_workspace`. Layers
        flagged ``tp_shard = True`` route their flagged GEMM outputs
        (and input gradients) through the
        :class:`~repro.mesh.tp.TPContext`'s load-bearing all-gather;
        with no context attached (the default) the numerics are
        untouched. Returns self.
        """
        for m in self.modules():
            object.__setattr__(m, "_tp_ctx", ctx)
        return self

    @property
    def tensor_parallel(self):
        """The attached :class:`~repro.mesh.tp.TPContext`, or ``None``."""
        return self._tp_ctx

    # -- activation caches ---------------------------------------------------

    #: Attributes holding this layer's forward->backward activation
    #: cache. Declared once per class; :meth:`release_caches` and the
    #: pipeline stash (:meth:`take_caches`/:meth:`put_caches`) both
    #: derive from it.
    _cache_attrs: tuple[str, ...] = ()
    #: The subset :meth:`release_caches` keeps: a checkpointed block's
    #: input is the one tensor checkpointing holds on to.
    _kept_on_release: tuple[str, ...] = ()

    def release_caches(self) -> None:
        """Recursively drop cached activations (activation checkpointing)."""
        for m in self.modules():
            for name in m._cache_attrs:
                if name not in m._kept_on_release:
                    object.__setattr__(m, name, None)

    def take_caches(self) -> tuple:
        """Detach and return this module's own cached activations.

        The pipeline engine parks one in-flight microbatch's caches
        here while the stage runs another; :meth:`put_caches` hands
        them back before that micro's backward. Not recursive.
        """
        vals = tuple(getattr(self, name) for name in self._cache_attrs)
        for name in self._cache_attrs:
            object.__setattr__(self, name, None)
        return vals

    def put_caches(self, vals: tuple) -> None:
        """Reinstall caches detached by :meth:`take_caches`."""
        for name, val in zip(self._cache_attrs, vals):
            object.__setattr__(self, name, val)

    # -- call protocol -----------------------------------------------------

    def forward(self, *args, **kwargs):
        """Compute outputs (subclass responsibility)."""
        raise NotImplementedError

    def backward(self, dout):
        """Backpropagate (subclass responsibility)."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
