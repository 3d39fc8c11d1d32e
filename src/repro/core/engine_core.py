"""EngineCore: what every training engine does, written once.

The paper swaps parallelism by a setting on one training program; here
:class:`~repro.core.ddp.DDPEngine`, :class:`~repro.core.fsdp.FSDPEngine`
and :class:`~repro.mesh.engine.MeshEngine` are *layouts* over this core.
The core owns config resolution, the construction order, the execution
backend, retried and telemetered collectives, precision, checkpoint
state, the topology record and the ``train_step`` skeleton. A layout
says where parameters and gradients live and which collectives gather
and reduce them.

**The contract a layout meets.** The class names its ``kind`` (the
engine kind of the topology record). Its ``__init__`` validates its own
arguments, calls ``EngineCore.__init__(model, world, config)``, sets

``layout``
    the :class:`~repro.elastic.layout.ReductionLayout` its reduction
    realizes (recorded in :meth:`EngineCore.topology`);
``strategy_name``
    the strategy label of the topology record;
``params`` *or* ``units`` + ``shard_size``
    parameter storage: per-parameter arrays, or
    :class:`~repro.core.sharding.FlatUnit` buffers sharded
    ``shard_size`` ways. The execution backend re-homes whichever is
    set, and the seam (:mod:`repro.backend`) reads ``units is None`` to
    tell them apart;
``grad_buffers`` (+ ``grad_groups`` beside ``params``)
    gradient storage, one contract for every layout: a rank's flat
    gradient buffers in outbound order, every ``p.grad`` a view into one
    of them (:func:`~repro.core.sharding.install_grad_views`), so
    backward writes where the collective reads. A unit layout lists its
    units' ``grad_flat``; a ``params`` layout builds one buffer per
    index group of ``params`` and names the groups in ``grad_groups``
    (process workers install the same views from them);
``data_parallel_size`` (only if narrower than ``world.size``)
    ranks that run distinct microbatches — the microbatches of one
    accumulation round and the process backend's worker count;
``tp_context`` (optional)
    a tensor-parallel context, which holds a copy of the telemetry bus

and then calls :meth:`EngineCore._launch`. It implements

``_reduce_gradients(grads)`` (required)
    combine ``grads[j][r][i]`` (round, rank, gradient buffer; outbound
    copies, already wire-ready) *into the arrays the optimizer reads*
    (``out=``) and return those arrays as one flat list;
``_materialize_params(backward)`` (default: nothing)
    gather sharded parameters before a round's forward and again
    before its backward;
``_forward_backward(micros, step_fn)`` (default: the round loop)
    overridden only to run a pipeline schedule in its place.

**Precision cast points**, in step order
(``EngineConfig(precision="bf16")``):

1. **Inputs** of every microbatch are rounded onto the bf16 grid
   (:func:`~repro.precision.bf16_round`) before the forward — the cast
   point real mixed-precision autocast applies at the model boundary.
2. **Outbound gradients** (what a rank contributes to the collective)
   are loss-scaled and rounded to bf16: reduction payloads carry only
   bf16 information, and the collective layer books half the wire bytes
   (``wire_dtype="bf16"``).
3. **Reduced gradients** are unscaled in full precision; under a
   dynamic scaler a non-finite gradient skips the optimizer step (the
   non-finite mean stays in the gradient arrays, unread, until the next
   step's reduce overwrites it) and backs the scale off.
4. **Master weights** in the optimizer apply the update at full
   precision and re-quantize the working parameters
   (:meth:`~repro.optim.base.Optimizer.use_master_weights`).

Accumulation blocks ``micros`` into ``grad_accum_steps`` rounds of
``data_parallel_size`` microbatches; layouts hand all rounds'
contributions to one collective call (``parts_per_rank``), which keeps
fp32 ``k``-round training bit-identical to the same global batch on a
``k``-times-larger world.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.backend import make_backend
from repro.comm.collectives import SimComm
from repro.comm.faults import call_with_retry
from repro.comm.world import World
from repro.core.engine import EngineConfig
from repro.core.sharding import FlatUnit
from repro.elastic.layout import ReductionLayout
from repro.models.module import Module
from repro.optim.adamw import AdamW
from repro.precision.bf16 import bf16_round, wire_fraction
from repro.precision.scaler import LossScaler
from repro.telemetry import NULL_BUS, TelemetryBus

__all__ = ["EngineCore", "StepFn"]

StepFn = Callable[[Module, Any], float]


class EngineCore:
    """Lifecycle, collectives, precision, state and the step skeleton
    shared by every engine; see the module docstring for what a
    subclass adds."""

    #: Removed constructor kwarg -> the parameter that replaced it. The
    #: one-shot DeprecationWarning shims completed their cycle; passing
    #: one of these is a hard TypeError.
    _REMOVED_KWARGS: dict[str, str] = {}

    kind: str
    layout: ReductionLayout
    strategy_name: str
    params: list | None = None
    units: list[FlatUnit] | None = None
    shard_size: int | None = None
    grad_buffers: list[np.ndarray]
    grad_groups: list[list[int]] | None = None
    tp_context = None

    def __init__(self, model: Module, world: World, config: EngineConfig):
        self.config = config
        self.model = model
        self.world = world
        self.data_parallel_size = world.size
        self.comm = config.comm if config.comm is not None else SimComm()
        self.retry_policy = config.retry_policy
        self.telemetry = config.telemetry if config.telemetry is not None else NULL_BUS
        self.precision: str = config.precision
        self.grad_accum_steps: int = config.grad_accum_steps
        self.scaler = LossScaler(
            init_scale=config.loss_scale, dynamic=config.dynamic_loss_scale
        )
        self._wire_dtype = "bf16" if self.precision == "bf16" else None

    @classmethod
    def _reject_kwargs(cls, kwargs: dict) -> None:
        """Refuse a constructor's leftover keyword arguments."""
        for old, new in cls._REMOVED_KWARGS.items():
            if old in kwargs:
                raise TypeError(
                    f"{cls.__name__}({old}=...) was removed; pass {new}=... "
                    "(directly, through EngineConfig or through make_engine)"
                )
        if kwargs:
            raise TypeError(f"unknown {cls.__name__} kwargs: {sorted(kwargs)}")

    def _launch(self) -> None:
        """Finish construction once the layout's storage is declared."""
        cfg = self.config
        # Backend before shards and optimizer: a process backend re-homes
        # p.data / each unit's flat buffer into shared memory, and the
        # flat-shard views and optimizer state (bf16 masters included)
        # must be laid down against that storage.
        self._backend = make_backend(self)
        self._shards = [u.make_shards() for u in self.units or ()]
        factory = cfg.optimizer_factory if cfg.optimizer_factory is not None else AdamW
        self.optimizer = factory(
            self.params
            if self.units is None
            else [s for shards in self._shards for s in shards]
        )
        if self.precision == "bf16":
            self.optimizer.use_master_weights(quantize=bf16_round)
        self._backend.start()
        self.step_count = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def telemetry(self) -> TelemetryBus:
        """The instrumentation bus. Assigning it (a trainer shares its
        bus down this way) re-points every holder of a copy."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, bus: TelemetryBus) -> None:
        self._telemetry = bus
        if self.tp_context is not None:
            self.tp_context.bus = bus if bus.enabled else None

    @property
    def backend(self) -> str:
        """Name of the active execution backend (``inline``/``process``)."""
        return self._backend.name

    @property
    def lr(self) -> float:
        """Current learning rate (delegates to the optimizer)."""
        return self.optimizer.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.optimizer.lr = value

    def close(self) -> None:
        """Release backend resources (worker processes, shared
        memory). Idempotent. Parameter storage is re-homed to
        private arrays, so checkpointing and evaluation keep working;
        further ``train_step`` calls need a fresh engine."""
        self._backend.shutdown()

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Engine snapshot: model params, optimizer state (master weights
        included under bf16), loss-scaler state, step count.

        Replica-group optimizer state is deduplicated, so this is a
        *global* checkpoint: the flat layout depends only on the model
        and the shard count, and :mod:`repro.elastic` reshards it into
        any other world.
        """
        return {
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "scaler": self.scaler.state_dict(),
            "step_count": self.step_count,
        }

    def load_state_dict(self, sd: dict) -> None:
        """Restore a snapshot taken from an engine with the same model
        architecture, layout kind and shard count."""
        self.model.load_state_dict(sd["model"])
        self.optimizer.load_state_dict(sd["optimizer"])
        if "scaler" in sd:
            self.scaler.load_state_dict(sd["scaler"])
        self.step_count = int(sd["step_count"])

    def topology(self) -> dict:
        """The world/sharding shape a snapshot of this engine assumes.

        Recorded in checkpoint metadata so a resume into a *different*
        shape fails with a typed error (or reshards through
        :mod:`repro.elastic`) instead of silently diverging.
        """
        return {
            "kind": self.kind,
            "strategy": self.strategy_name,
            "world_size": self.world.size,
            "ranks_per_node": self.world.ranks_per_node,
            "shard_size": self.shard_size,
            "grad_accum_steps": self.grad_accum_steps,
            "layout": {"total": self.layout.total, "chunk": self.layout.chunk},
            "precision": self.precision,
            "backend": self.backend,
        }

    # -- collectives -------------------------------------------------------

    def _collective(self, fn, op: str = "collective", nbytes: float = 0.0, **span_tags):
        """Issue one collective, retrying transient failures per policy.

        Collectives are pure functions of buffers a failed attempt never
        wrote, so a retried step is bit-identical to an uninterrupted
        one. With telemetry enabled the call is wrapped in a
        ``comm.<op>`` span (bytes and ``span_tags`` attached) and any
        retries/backoff incurred are emitted as step-attributed counters
        — including when the retry budget is exhausted and the error
        propagates, so backoff time is never silently dropped from the
        step's account.
        """
        bus = self.telemetry
        if not bus.enabled:
            return call_with_retry(fn, self.retry_policy, stats=self.comm.stats)
        stats = self.comm.stats
        retries0 = stats.total_retries
        backoff0 = stats.backoff_seconds
        try:
            with bus.span(f"comm.{op}", bytes=float(nbytes), **span_tags):
                return call_with_retry(fn, self.retry_policy, stats=stats)
        finally:
            if stats.total_retries != retries0:
                bus.counter("comm.retries", stats.total_retries - retries0, op=op)
                bus.counter(
                    "comm.backoff_s", stats.backoff_seconds - backoff0, op=op
                )

    def _gather_units(self, groups: Iterable, **span_tags) -> None:
        """All-gather every unit's shards over each of ``groups``.

        The shards are views of ``unit.flat``, which is also the receive
        buffer (``out=``): the in-place gather of NCCL and PyTorch FSDP,
        which moves no bytes here. Issuing it still runs the collective
        layer's accounting and fault path, which is the point.
        """
        for unit in self.units:
            shards = [unit.shard_view(j) for j in range(self.shard_size)]
            for group in groups:
                self._collective(
                    lambda: self.comm.all_gather(
                        shards, group, out=unit.flat, wire_dtype=self._wire_dtype
                    ),
                    op="all_gather",
                    nbytes=self._wire_nbytes(unit.flat.nbytes),
                    **span_tags,
                )

    def _mean_reduce(self, op: str, bufs, group, parts: int = 1, out=None, **span_tags):
        """Mean ``bufs`` over ``group`` through ``comm.<op>``
        (``all_reduce`` / ``reduce_scatter``): ``parts`` round-major
        accumulation contributions per rank enter the one call, and
        ``out`` receives the result in place (one buffer for an
        all-reduce, the chunk list for a reduce-scatter)."""
        return self._collective(
            lambda: getattr(self.comm, op)(
                bufs,
                group,
                op="mean",
                parts_per_rank=parts,
                out=out,
                wire_dtype=self._wire_dtype,
            ),
            op=op,
            nbytes=self._wire_nbytes(bufs[0].nbytes),
            **span_tags,
        )

    def _wire_nbytes(self, nbytes: float) -> float:
        """Logical payload bytes of a native buffer at the wire dtype."""
        if self._wire_dtype is None:
            return float(nbytes)
        return nbytes * wire_fraction(self._wire_dtype)

    # -- one rank's gradients (execution-backend hooks) ----------------------

    def _zero_local_grads(self) -> None:
        """Zero one rank's local gradients before its microbatch."""
        for buf in self.grad_buffers:
            buf[...] = 0.0

    def _collect_rank_grads(self) -> list[np.ndarray]:
        """One rank's outbound (wire-ready) copy of each gradient buffer."""
        return [self._outbound_grad(buf) for buf in self.grad_buffers]

    def _outbound_grad(self, g: np.ndarray) -> np.ndarray:
        """One rank's gradient contribution as it enters the collective:
        a copy, so the reduce may write where ``g`` lives.

        Under bf16 this is where the loss scale is applied and the
        payload drops to bf16 resolution.
        """
        if self.precision != "bf16":
            return g.copy()
        if self.scaler.scale != 1.0:
            return bf16_round(g * self.scaler.scale)
        return bf16_round(g)

    # -- the step ----------------------------------------------------------

    def train_step(self, micros: Sequence[Any], step_fn: StepFn) -> float:
        """One optimizer step over ``grad_accum_steps *
        data_parallel_size`` microbatches.

        ``step_fn(model, micro)`` must run forward *and* backward for one
        microbatch (accumulating into the model's gradients) and return
        the scalar loss. Microbatches are consumed round-major — micro
        ``(round j, rank r)`` sits at index ``j * data_parallel_size +
        r`` — and the optimizer fires once per call. Returns the mean
        loss across all microbatches. In fp32 the step is bit-identical
        to the world-1 DDP oracle accumulating the same micros, for
        every layout (tested).
        """
        k, dp = self.grad_accum_steps, self.data_parallel_size
        if len(micros) != k * dp:
            raise ValueError(
                f"need {k * dp} microbatches ({k} accumulation round(s) x "
                f"{dp} rank(s)), got {len(micros)}"
            )
        bus = self.telemetry
        bus.set_step(self.step_count)
        if bus.enabled:
            # Per-step gauges of non-default precision/accumulation runs.
            if k > 1:
                bus.gauge("train.grad_accum_steps", float(k))
            if self.precision != "fp32" or self.scaler.enabled:
                bus.gauge("precision.loss_scale", self.scaler.scale)
        try:
            losses, grads = self._forward_backward(micros, step_fn)
            reduced = self._reduce_gradients(grads)
        except Exception:
            # A step_fn that raises mid-chain, or a collective whose
            # retry budget ran out, would otherwise leave every module
            # holding its activation cache — a whole model's worth of
            # arrays pinned while the caller decides whether to re-drive
            # the step.
            self.model.release_caches()
            raise
        if self._grad_postprocess(reduced):
            with bus.span("optim.step"):
                self.optimizer.step()
        self.step_count += 1
        return float(np.mean(losses))

    def _forward_backward(
        self, micros: Sequence[Any], step_fn: StepFn
    ) -> tuple[list[float], list[list[list[np.ndarray]]]]:
        """Run every round on the execution backend.

        Returns ``(losses, grads)``: losses in micro order and
        ``grads[j][r][i]``, round j, rank r's outbound copy of gradient
        buffer i, already loss-scaled/quantized for the wire.
        """
        dp = self.data_parallel_size
        losses: list[float] = []
        grads: list[list[list[np.ndarray]]] = []
        for j in range(self.grad_accum_steps):
            self._materialize_params()
            with self.telemetry.span("compute.fwd_bwd"):
                cast = [self._cast_micro(micros[j * dp + r]) for r in range(dp)]
                round_losses, per_rank = self._backend.run_round(j, cast, step_fn)
                losses.extend(round_losses)
                grads.append(per_rank)
            self._materialize_params(backward=True)
        return losses, grads

    def _materialize_params(self, backward: bool = False) -> None:
        """Gather sharded parameters for a round's forward / backward."""

    def _reduce_gradients(self, grads: list[list[list[np.ndarray]]]) -> list[np.ndarray]:
        """Reduce all rounds' per-rank contributions into the arrays the
        optimizer reads, and return those arrays (layout hook)."""
        raise NotImplementedError

    def _cast_micro(self, micro: Any) -> Any:
        """Round a microbatch's floating arrays onto the bf16 grid.

        Microbatches are opaque to the engine except for this cast:
        bare arrays and (nested) tuples/lists of arrays are handled;
        non-float leaves pass through untouched.
        """
        if self.precision != "bf16":
            return micro
        return _cast_tree(micro)

    def _grad_postprocess(self, reduced: list[np.ndarray]) -> bool:
        """Unscale reduced gradients in place (bf16 only: fp32 never
        scaled them on the way out); decide whether to step.

        Returns False — and advances the dynamic scaler's backoff —
        when a non-finite gradient means this optimizer step must be
        skipped. On the fp32 default path this touches nothing.
        """
        s = self.scaler.scale
        if self.precision == "bf16" and s != 1.0:
            for a in reduced:
                np.divide(a, s, out=a)
        if not self.scaler.dynamic:
            return True
        found_inf = any(not np.isfinite(a).all() for a in reduced)
        self.scaler.update(found_inf)
        if found_inf and self.telemetry.enabled:
            self.telemetry.counter("precision.skipped_steps", 1)
        return not found_inf


def _cast_tree(micro: Any) -> Any:
    if isinstance(micro, np.ndarray):
        return bf16_round(micro) if micro.dtype.kind == "f" else micro
    if isinstance(micro, (tuple, list)):
        return type(micro)(_cast_tree(m) for m in micro)
    return micro
