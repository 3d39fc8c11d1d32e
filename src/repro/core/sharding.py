"""Sharding strategies, the strategy table, and flat-parameter machinery.

**A strategy is a row.** :data:`STRATEGY_TABLE` holds one frozen
:class:`StrategyRow` per :class:`ShardingStrategy` member saying what is
true of it: where parameters and gradients live, how the shard size
follows from the data-parallel group, when parameters are gathered, how
gradients are reduced, and which model state the shard size divides.
The executable engine (:mod:`repro.core.engine_core`), the process
worker, the step schedule, the simulator, the memory model and the
closed-form traffic model all read these rows, so a strategy cannot be
one thing when executed and another when priced. ``HYBRID_SHARD`` is
"full shard inside the shard group, replicate across groups": it
regathers parameters for backward exactly as ``FULL_SHARD`` does;
``SHARD_GRAD_OP`` is the one sharded row that keeps them gathered.

FSDP's unit of sharding is the *flat parameter*: all tensors of one
wrapped module (here: one transformer block, matching the paper's
``transformer_auto_wrap_policy`` setup) concatenated into a single 1-D
buffer, zero-padded to a multiple of the sharding-group size, and split
into equal contiguous shards — rank ``j`` of the group owns shard ``j``.

:class:`FlatUnit` additionally *installs views*: after flattening, every
module parameter's ``data``/``grad`` array becomes a reshaped view into
the unit's flat buffers, so an all-gather that writes the flat buffer
materializes the module parameters with zero copies (a direct application
of the "views, not copies" guidance).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

import numpy as np

from repro.models.blocks import TransformerBlock
from repro.models.module import Module, Parameter
from repro.precision.bf16 import bf16_outbound

__all__ = [
    "ShardingStrategy",
    "BackwardPrefetch",
    "parse_strategy",
    "StrategyRow",
    "STRATEGY_TABLE",
    "resolve_shard_size",
    "Storage",
    "declare_storage",
    "ShardPlan",
    "FlatUnit",
    "FlatShard",
    "UnitSpec",
    "flatten_params",
    "unflatten_params",
    "install_grad_views",
    "grad_views",
    "default_wrap_units",
    "unit_param_specs",
]


class ShardingStrategy(enum.Enum):
    """FSDP sharding strategies, paper Section III-C."""

    NO_SHARD = "NO_SHARD"
    FULL_SHARD = "FULL_SHARD"
    SHARD_GRAD_OP = "SHARD_GRAD_OP"
    HYBRID_SHARD = "HYBRID_SHARD"
    DDP = "DDP"  # the non-FSDP baseline the paper compares against


class BackwardPrefetch(enum.Enum):
    """FSDP backward parameter-prefetch policies, paper Section IV-B."""

    NONE = "NONE"
    BACKWARD_POST = "BACKWARD_POST"
    BACKWARD_PRE = "BACKWARD_PRE"


_HYBRID_RE = re.compile(r"^HYBRID_(\d+)GPUS?$", re.IGNORECASE)


def parse_strategy(name: str) -> tuple[ShardingStrategy, int | None]:
    """Parse a paper-style strategy label into (strategy, shard_size).

    Accepts the plain enum names plus the paper's ``HYBRID_2GPUs`` /
    ``HYBRID_8GPUs`` labels; returns shard_size None when the strategy
    itself determines it (NO_SHARD -> 1, FULL_SHARD -> world size).
    """
    label = name.strip()
    m = _HYBRID_RE.match(label)
    if m:
        return ShardingStrategy.HYBRID_SHARD, int(m.group(1))
    try:
        return ShardingStrategy[label.upper()], None
    except KeyError:
        raise ValueError(f"unknown sharding strategy {name!r}") from None


@dataclass(frozen=True)
class StrategyRow:
    """What is true of one sharding strategy.

    ``kind``
        The engine kind of the topology record (``"ddp"`` / ``"fsdp"``).
    ``storage``
        ``"params"``: per-parameter data and optimizer slots over
        bucketed flat gradient buffers (PyTorch DDP's
        ``gradient_as_bucket_view``). ``"units"``: :class:`FlatUnit`
        buffers with one optimizer slot per shard.
    ``shards``
        How the shard size follows from the data-parallel group:
        ``"one"`` (unsharded), ``"group"`` (the whole group) or
        ``"requested"`` (the caller's ``shard_size``, which must divide
        the group) — see :func:`resolve_shard_size`.
    ``regather_in_backward``
        Sharded parameters are gathered before every round's forward;
        this says whether they are freed afterwards and gathered again
        for its backward. Read through :meth:`gathers`.
    ``reduce``
        The gradient reduce sequence: one ``all_reduce``, one
        ``reduce_scatter``, or a ``reduce_scatter`` inside each shard
        group then an ``all_reduce`` across replica groups (which an
        explicit single-stage :class:`~repro.elastic.layout
        .ReductionLayout` folds into its first stage when there is one
        replica group).
    ``shards_params``
        Whether the shard size divides parameter bytes as well as
        gradients, master weights and optimizer moments (which it always
        divides).
    """

    kind: str
    storage: str
    shards: str
    regather_in_backward: bool
    reduce: tuple[str, ...]
    shards_params: bool

    def gathers(self, shard_size: int, backward: bool = False) -> bool:
        """Whether a round all-gathers the parameters before its forward
        (``backward=False``) / again before its backward."""
        return shard_size > 1 and (self.regather_in_backward or not backward)

    def materializes(self, shard_size: int) -> bool:
        """Whether the memory model and the allocator-churn penalty price
        unit materialization. A whole-group row is priced even over a
        one-rank group (a ``dp=1`` mesh), where :meth:`gathers` is false
        and the engine gathers nothing — kept from the ladders this
        table replaced so that no published table moves; reconciling it
        is ROADMAP item 2(iii)'s."""
        return self.shards == "group" or shard_size > 1


#: The one account of what each strategy is (see the module docstring).
STRATEGY_TABLE: dict[ShardingStrategy, StrategyRow] = {
    ShardingStrategy.DDP: StrategyRow(
        kind="ddp",
        storage="params",
        shards="one",
        regather_in_backward=False,
        reduce=("all_reduce",),
        shards_params=False,
    ),
    ShardingStrategy.NO_SHARD: StrategyRow(
        kind="fsdp",
        storage="units",
        shards="one",
        regather_in_backward=False,
        reduce=("all_reduce",),
        shards_params=True,
    ),
    ShardingStrategy.FULL_SHARD: StrategyRow(
        kind="fsdp",
        storage="units",
        shards="group",
        regather_in_backward=True,
        reduce=("reduce_scatter",),
        shards_params=True,
    ),
    ShardingStrategy.SHARD_GRAD_OP: StrategyRow(
        kind="fsdp",
        storage="units",
        shards="group",
        regather_in_backward=False,
        reduce=("reduce_scatter",),
        shards_params=False,
    ),
    ShardingStrategy.HYBRID_SHARD: StrategyRow(
        kind="fsdp",
        storage="units",
        shards="requested",
        regather_in_backward=True,
        reduce=("reduce_scatter", "all_reduce"),
        shards_params=True,
    ),
}


def resolve_shard_size(
    strategy: ShardingStrategy, requested: int | None, group_size: int
) -> int:
    """The shard size ``strategy`` runs at over a data-parallel group of
    ``group_size`` ranks, refusing a ``requested`` size the row cannot
    honour. ``"params"`` storage has no shards and ignores the request
    (one config builds a whole strategy sweep)."""
    row = STRATEGY_TABLE[strategy]
    if row.storage == "params":
        return 1
    if row.shards == "one":
        if requested not in (None, 1):
            raise ValueError(f"{strategy.value} implies shard_size=1")
        return 1
    if row.shards == "group":
        if requested not in (None, group_size):
            raise ValueError(f"{strategy.value} shards across the whole world")
        return group_size
    if requested is None:
        raise ValueError(f"{strategy.value} requires an explicit shard_size")
    if requested < 1 or group_size % requested != 0:
        raise ValueError(
            f"world size {group_size} not divisible by shard size {requested}"
        )
    return requested


@dataclass(frozen=True)
class ShardPlan:
    """How one flat parameter of ``numel`` elements splits over a group."""

    numel: int
    shard_size: int

    def __post_init__(self) -> None:
        if self.numel <= 0:
            raise ValueError(f"numel must be positive, got {self.numel}")
        if self.shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {self.shard_size}")

    @property
    def padded_numel(self) -> int:
        """Element count after zero-padding to a shard multiple."""
        s = self.shard_size
        return -(-self.numel // s) * s

    @property
    def shard_numel(self) -> int:
        """Elements per shard."""
        return self.padded_numel // self.shard_size

    def shard_slice(self, shard_index: int) -> slice:
        """Flat-buffer slice owned by ``shard_index``."""
        if not 0 <= shard_index < self.shard_size:
            raise ValueError(
                f"shard index {shard_index} out of range for {self.shard_size} shards"
            )
        c = self.shard_numel
        return slice(shard_index * c, (shard_index + 1) * c)


def flatten_params(params: list[Parameter]) -> tuple[np.ndarray, list[tuple[str, tuple[int, ...], int]]]:
    """Concatenate parameters into a flat vector plus layout metadata.

    Returns ``(flat, layout)`` where layout entries are
    ``(name, shape, offset)``.
    """
    if not params:
        raise ValueError("cannot flatten an empty parameter list")
    layout = []
    offset = 0
    for p in params:
        layout.append((p.name, p.data.shape, offset))
        offset += p.data.size
    flat = np.concatenate([p.data.reshape(-1) for p in params])
    return flat, layout


def unflatten_params(flat: np.ndarray, layout) -> list[np.ndarray]:
    """Views into ``flat`` for each layout entry (no copies)."""
    out = []
    for _name, shape, offset in layout:
        n = int(np.prod(shape))
        out.append(flat[offset : offset + n].reshape(shape))
    return out


def install_grad_views(
    params: list[Parameter], flat: np.ndarray | None = None
) -> np.ndarray:
    """Re-point every ``p.grad`` at its reshaped run of ``flat``, runs
    laid end to end in ``params`` order; returns ``flat`` (allocated
    zeroed at the parameters' total size when not given). Backward then
    writes gradients straight into the buffer a collective reduces."""
    if flat is None:
        dtype = np.result_type(*(p.dtype for p in params))
        flat = np.zeros(sum(p.size for p in params), dtype)
    for p, view in zip(params, grad_views(params, flat)):
        p.grad = view
    return flat


def grad_views(params: list[Parameter], flat: np.ndarray) -> list[np.ndarray]:
    """Each parameter's reshaped run of ``flat``, runs laid end to end in
    ``params`` order (what :func:`install_grad_views` points at)."""
    views = []
    offset = 0
    for p in params:
        views.append(flat[offset : offset + p.size].reshape(p.shape))
        offset += p.size
    return views


class FlatShard:
    """One rank's shard of a flat parameter, as an optimizer target.

    ``data`` is a *view* into the unit's flat buffer, so an optimizer
    stepping this shard updates the materialized parameters in place.
    """

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = data
        self.grad = np.zeros_like(data)
        self.name = name


class FlatUnit:
    """One FSDP wrapping unit: a flat parameter plus installed views."""

    def __init__(self, name: str, params: list[Parameter], shard_size: int):
        if shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        self.name = name
        self.params = params
        flat, self.layout = flatten_params(params)
        self.plan = ShardPlan(numel=flat.size, shard_size=shard_size)
        self.flat = np.zeros(self.plan.padded_numel, dtype=flat.dtype)
        self.flat[: flat.size] = flat
        self.grad_flat = np.zeros_like(self.flat)
        self._install_views()

    def _install_views(self) -> None:
        for p, data_view in zip(self.params, unflatten_params(self.flat, self.layout)):
            p.data = data_view
        install_grad_views(self.params, self.grad_flat)

    @property
    def nbytes(self) -> int:
        """Bytes of the padded flat parameter."""
        return self.flat.nbytes

    def shard_view(self, shard_index: int) -> np.ndarray:
        """View of shard ``shard_index`` inside the flat buffer."""
        return self.flat[self.plan.shard_slice(shard_index)]

    def make_shards(self) -> list[FlatShard]:
        """Optimizer targets: one per shard index, viewing the flat buffer."""
        return [
            FlatShard(self.shard_view(j), name=f"{self.name}/shard{j}")
            for j in range(self.plan.shard_size)
        ]


def _wrap_groups(model: Module) -> list[tuple[str, list[Parameter]]]:
    """The paper's wrapping policy as (unit name, parameters) groups.

    Every :class:`TransformerBlock` becomes its own group; all remaining
    parameters (embeddings, norms, heads, tokens) form the root group,
    which goes first — exactly what
    ``transformer_auto_wrap_policy(TransformerBlock)`` produces in
    PyTorch FSDP. This grouping depends only on the model architecture
    (not on the shard size), which is what lets checkpoint resharding
    recompute any world's flat layout from a model instance alone.
    """
    block_params: set[int] = set()
    groups: list[tuple[str, list[Parameter]]] = []
    idx = 0
    for mod in model.modules():
        if isinstance(mod, TransformerBlock):
            params = mod.parameters()
            block_params.update(id(p) for p in params)
            groups.append((f"block{idx}", params))
            idx += 1
    root = [p for p in model.parameters() if id(p) not in block_params]
    if root:
        # Root unit goes first: FSDP gathers it for the embedding layers
        # before any block runs.
        groups.insert(0, ("root", root))
    if not groups:
        raise ValueError("model has no parameters to wrap")
    return groups


def default_wrap_units(model: Module, shard_size: int) -> list[FlatUnit]:
    """Build the flat-parameter units for :func:`_wrap_groups`."""
    return [
        FlatUnit(name, params, shard_size) for name, params in _wrap_groups(model)
    ]


@dataclass
class Storage:
    """One rank's parameter and gradient storage, as a row lays it out.

    Exactly one of ``params`` (per-parameter slots, with ``grad_groups``
    naming the index group of ``params`` behind each gradient buffer)
    and ``units`` is set — this class is where that fork lives.
    ``grad_buffers`` are the rank's flat gradient buffers in outbound
    order; every ``p.grad`` is a view into one of them, so backward
    writes where the collective reads. ``grad_params`` are each buffer's
    parameters, laid end to end in it. ``shards`` are each unit's
    optimizer targets once :meth:`make_slots` has laid them down.
    """

    params: list[Parameter] | None
    units: list[FlatUnit] | None
    grad_groups: list[list[int]] | None
    grad_buffers: list[np.ndarray]
    shards: list[list[FlatShard]] = field(default_factory=list)
    grad_params: list[list[Parameter]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.units is not None:
            self.grad_params = [u.params for u in self.units]
        else:
            self.grad_params = [[self.params[i] for i in g] for g in self.grad_groups]

    def run_rank(self, model: Module, micro, step_fn, row, scale: float | None) -> float:
        """One rank's share of an accumulation round, wherever it runs
        (the inline backend's loop, a process worker): mark every
        parameter unwritten (nothing is zeroed: a micro's first
        contribution writes its gradient, and one still unwritten is
        zeroed after), run ``step_fn(model, micro)`` — forward and
        backward — and copy each buffer into ``row[i]``, the rank's
        outbound contribution (never the buffer itself: the reduce
        writes where the buffer lives). That copy is the one place the
        bf16 wire is scaled and quantized: ``scale`` is ``None`` on the
        fp32 wire, else the loss scale of the bf16 one
        (:func:`~repro.precision.bf16.bf16_outbound`). Returns the loss."""
        for group in self.grad_params:
            for p in group:
                p.unwritten = True
        try:
            loss = float(step_fn(model, micro))
        finally:
            for group in self.grad_params:
                for p in group:
                    if p.unwritten:
                        p.zero_grad()
        for out, buf in zip(row, self.grad_buffers, strict=True):
            np.copyto(out, buf if scale is None else bf16_outbound(buf, scale))
        return loss

    def arrays(self) -> list[np.ndarray]:
        """The parameter arrays an execution backend re-homes: each
        unit's flat buffer, or each parameter's data."""
        if self.units is not None:
            return [u.flat for u in self.units]
        return [p.data for p in self.params]

    def rehome(self, arrays: list[np.ndarray]) -> None:
        """Point every slot of :meth:`arrays` (and the flat shards
        viewing it) at its flat replacement; the values are the caller's
        to carry over."""
        if self.units is None:
            for p, flat in zip(self.params, arrays, strict=True):
                p.data = flat.reshape(p.shape)
            return
        for unit, flat in zip(self.units, arrays, strict=True):
            unit.flat = flat
            unit._install_views()
        for unit, shards in zip(self.units, self.shards):
            for j, shard in enumerate(shards):
                shard.data = unit.shard_view(j)

    def make_slots(self) -> tuple[list, list[list[np.ndarray]]]:
        """``(slots, dests)``: what the optimizer steps — every
        parameter, or every unit's flat shards (views of the flat
        buffers as they are homed *now*) — and, per gradient buffer, the
        arrays its reduce lands in, which the optimizer reads: the
        bucket itself, or the unit's per-shard gradients."""
        if self.units is None:
            return self.params, [[buf] for buf in self.grad_buffers]
        self.shards = [u.make_shards() for u in self.units]
        slots = [s for shards in self.shards for s in shards]
        return slots, [[s.grad for s in shards] for shards in self.shards]


def declare_storage(
    model: Module,
    strategy: ShardingStrategy,
    shard_size: int,
    grad_groups: list[list[int]] | None = None,
) -> Storage:
    """Lay ``model`` out the way ``strategy``'s row stores it.

    The engine and every process-backend worker call this with the same
    arguments, so a worker's gradient buffers are the parent's by
    construction. ``grad_groups`` (``"params"`` storage only) are the
    gradient buckets as index groups of ``model.parameters()``.
    """
    if STRATEGY_TABLE[strategy].storage == "units":
        units = default_wrap_units(model, shard_size)
        return Storage(None, units, None, [u.grad_flat for u in units])
    params = model.parameters()
    buffers = [install_grad_views([params[i] for i in g]) for g in grad_groups]
    return Storage(params, None, grad_groups, buffers)


@dataclass(frozen=True)
class UnitSpec:
    """Shard-size-independent description of one wrapping unit.

    ``layout`` entries are ``(param_name, shape, offset)`` into the
    unit's unpadded flat vector, in flattening order — the same layout
    :class:`FlatUnit` materializes. Combined with a
    :class:`ShardPlan` for any shard size, this is enough to map
    per-flat-shard optimizer state (moments, masters) to and from
    per-parameter canonical form without constructing an engine.
    """

    name: str
    layout: tuple[tuple[str, tuple[int, ...], int], ...]
    numel: int

    def plan(self, shard_size: int) -> ShardPlan:
        """The unit's shard plan at ``shard_size``."""
        return ShardPlan(numel=self.numel, shard_size=shard_size)


def unit_param_specs(model: Module) -> list[UnitSpec]:
    """The model's wrapping units as pure metadata (no flat buffers).

    Layout entries use the model's *dotted* parameter names (the
    ``state_dict`` keys), which are unique across the module tree —
    ``Parameter.name`` alone is only the local attribute name.
    """
    dotted = {id(p): name for name, p in model.named_parameters()}
    specs: list[UnitSpec] = []
    for name, params in _wrap_groups(model):
        layout: list[tuple[str, tuple[int, ...], int]] = []
        offset = 0
        for p in params:
            layout.append((dotted[id(p)], tuple(p.data.shape), offset))
            offset += p.data.size
        specs.append(UnitSpec(name=name, layout=tuple(layout), numel=offset))
    return specs
