"""Checkpoint resharding: one snapshot, any world.

An engine snapshot is shaped by the world that wrote it — an FSDP
engine's optimizer state lives on flat parameter *shards* (unit-major,
shard-minor, zero-padded to the shard count), a DDP engine's on the
per-parameter slots. Restoring a FULL_SHARD-16 snapshot into a HYBRID-8
engine therefore needs a remapping, not just a load.

The remapping goes through a **canonical form** that is independent of
world size, sharding strategy, and engine kind: every optimizer moment
and master weight keyed by the *dotted parameter name* at the
parameter's natural shape. ``canonicalize`` lifts an engine state dict
into that form using only the model architecture (the flat layout of
every wrapping unit is a pure function of the model —
:func:`repro.core.sharding.unit_param_specs`); ``decanonicalize`` lowers
it onto any target topology. Both directions are exact: zero-padding in
flat shards is provably zero under AdamW (zero parameter, zero gradient
and zero moments update to exactly zero), which is asserted rather than
assumed.

What resharding **cannot** change is the logical
:class:`~repro.elastic.layout.ReductionLayout`: two configurations
continue the same fp32 trajectory iff they reduce gradients with the
same ``(total, chunk)`` grouping. :func:`reshard_engine_state` enforces
that, so an incompatible resize fails with a typed
:class:`~repro.elastic.errors.ElasticCompatibilityError` instead of
silently diverging.

The module-level ``ENGINE_STATE_KEYS`` / ``TRAINER_STATE_KEYS``
frozensets declare exactly which state-dict fields the mapping
understands; ``tools/lint.py``'s ``elastic_state`` rule lints the engine and
trainer ``state_dict`` implementations against them so a new field can
never bypass resharding unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.sharding import UnitSpec, unit_param_specs
from repro.elastic.errors import ElasticCompatibilityError
from repro.elastic.layout import ReductionLayout

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.models.module import Module

__all__ = [
    "ENGINE_STATE_KEYS",
    "TRAINER_STATE_KEYS",
    "TopologySpec",
    "engine_topology",
    "canonicalize",
    "decanonicalize",
    "reshard_engine_state",
    "reshard_trainer_state",
]

#: Every key an engine ``state_dict`` may contain. A key outside this set
#: has no reshard mapping and fails loudly (and the ``elastic_state``
#: lint catches it at development time).
ENGINE_STATE_KEYS = frozenset({"model", "optimizer", "scaler", "step_count"})

#: Every key a trainer ``state_dict`` may contain.
TRAINER_STATE_KEYS = frozenset({"engine", "history"})


@dataclass(frozen=True)
class TopologySpec:
    """The world/sharding shape an engine snapshot assumes.

    Produced by ``engine.topology()`` and recorded in checkpoint
    metadata. ``backend`` and ``ranks_per_node`` are informational
    (process and inline backends are fp32 bit-identical, and node
    boundaries do not change collective grouping); the remaining fields
    determine whether a snapshot can be loaded directly, resharded, or
    not resumed at all.
    """

    kind: str
    strategy: str
    world_size: int
    ranks_per_node: int
    shard_size: int | None
    grad_accum_steps: int
    layout: ReductionLayout
    precision: str
    backend: str
    #: Mesh engines record their ``(pp, dp, tp, schedule)`` here; plain
    #: DDP/FSDP topologies (and legacy snapshots) carry ``None``.
    mesh: dict | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "TopologySpec":
        try:
            layout = ReductionLayout(
                total=int(d["layout"]["total"]), chunk=int(d["layout"]["chunk"])
            )
            mesh = d.get("mesh")
            return cls(
                kind=str(d["kind"]),
                strategy=str(d["strategy"]),
                world_size=int(d["world_size"]),
                ranks_per_node=int(d["ranks_per_node"]),
                shard_size=None if d["shard_size"] is None else int(d["shard_size"]),
                grad_accum_steps=int(d["grad_accum_steps"]),
                layout=layout,
                precision=str(d["precision"]),
                backend=str(d["backend"]),
                mesh=None if mesh is None else dict(mesh),
            )
        except (KeyError, TypeError) as e:
            raise ElasticCompatibilityError(
                f"malformed topology record {d!r}: {e}"
            ) from e

    def to_dict(self) -> dict:
        """The checkpoint-metadata form (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "strategy": self.strategy,
            "world_size": self.world_size,
            "ranks_per_node": self.ranks_per_node,
            "shard_size": self.shard_size,
            "grad_accum_steps": self.grad_accum_steps,
            "layout": {"total": self.layout.total, "chunk": self.layout.chunk},
            "precision": self.precision,
            "backend": self.backend,
            "mesh": None if self.mesh is None else dict(self.mesh),
        }

    def describe(self) -> str:
        """Human-readable one-liner (used in error messages)."""
        shard = f", shard_size={self.shard_size}" if self.shard_size else ""
        mesh = ""
        if self.mesh is not None:
            mesh = (
                f" mesh=pp{self.mesh.get('pp')}xdp{self.mesh.get('dp')}"
                f"xtp{self.mesh.get('tp')}"
            )
        return (
            f"{self.strategy} world={self.world_size}{shard}{mesh} "
            f"k={self.grad_accum_steps} layout={self.layout.describe()} "
            f"{self.precision}"
        )

    def same_trajectory(self, other: "TopologySpec") -> bool:
        """Whether a snapshot from ``self`` can continue bit-exact under
        ``other`` (after resharding): same reduction layout, same
        precision."""
        return self.layout == other.layout and self.precision == other.precision

    def same_shape(self, other: "TopologySpec") -> bool:
        """Whether a snapshot from ``self`` loads into ``other`` without
        resharding (identical state-dict structure and microbatching)."""
        return (
            self.kind == other.kind
            and self.strategy == other.strategy
            and self.world_size == other.world_size
            and self.shard_size == other.shard_size
            and self.grad_accum_steps == other.grad_accum_steps
            and self.mesh == other.mesh
            and self.same_trajectory(other)
        )


def engine_topology(engine) -> TopologySpec:
    """The :class:`TopologySpec` of a live engine."""
    return TopologySpec.from_dict(engine.topology())


# -- flat-shard <-> per-parameter mapping -----------------------------------


def _slot_keys(slots: list[dict]) -> frozenset[str]:
    """The uniform key set of a slot list (AdamW initializes every slot
    in the same optimizer step, so mixed slots mean corruption)."""
    keysets = {frozenset(s.keys()) for s in slots}
    if len(keysets) > 1:
        raise ElasticCompatibilityError(
            f"optimizer slots carry inconsistent state keys {sorted(map(sorted, keysets))}; "
            "cannot reshard a partially-initialized optimizer"
        )
    return next(iter(keysets)) if keysets else frozenset()


def _assert_zero_padding(flat: np.ndarray, numel: int, what: str) -> None:
    if flat.size > numel and np.any(flat[numel:]):
        raise ElasticCompatibilityError(
            f"{what} has nonzero values in the shard zero-padding region; "
            "this state was not produced by this engine family and cannot "
            "be resharded exactly"
        )


def _gather_unit_flat(
    pieces: list[np.ndarray], spec: UnitSpec, what: str
) -> np.ndarray:
    """Concatenate one unit's per-shard arrays and strip the padding."""
    flat = np.concatenate([np.asarray(p).reshape(-1) for p in pieces])
    if flat.size < spec.numel:
        raise ElasticCompatibilityError(
            f"{what}: flat size {flat.size} < unit numel {spec.numel}"
        )
    _assert_zero_padding(flat, spec.numel, what)
    return flat


def _split_unit_flat(
    per_param: dict[str, np.ndarray], spec: UnitSpec, shard_size: int
) -> list[np.ndarray]:
    """Lower per-parameter arrays onto one unit's padded flat shards."""
    plan = spec.plan(shard_size)
    dtype = next(iter(per_param.values())).dtype
    flat = np.zeros(plan.padded_numel, dtype=dtype)
    for pname, shape, offset in spec.layout:
        n = int(np.prod(shape)) if shape else 1
        flat[offset : offset + n] = np.asarray(per_param[pname]).reshape(-1)
    return [flat[plan.shard_slice(j)].copy() for j in range(shard_size)]


def _slot_layout(topology: TopologySpec) -> str:
    """Which optimizer slot layout a topology's state dict uses.

    A mesh engine's optimizer mirrors its dp strategy exactly: flat
    shards over ``shard_size == dp`` groups under full_shard (the fsdp
    layout), per-parameter slots under ddp — so mesh snapshots reshard
    through the same two mappings, keyed on whether the topology
    recorded a shard size.
    """
    if topology.kind == "mesh":
        return "fsdp" if topology.shard_size else "ddp"
    return topology.kind


def _unit_params(
    flat: np.ndarray, spec: UnitSpec
) -> dict[str, np.ndarray]:
    """Slice one unit's unpadded flat vector into per-parameter arrays."""
    out: dict[str, np.ndarray] = {}
    for pname, shape, offset in spec.layout:
        n = int(np.prod(shape)) if shape else 1
        out[pname] = flat[offset : offset + n].reshape(shape).copy()
    return out


# -- canonical form ---------------------------------------------------------


def canonicalize(engine_sd: dict, model: "Module", topology: TopologySpec) -> dict:
    """Lift an engine state dict into world-neutral canonical form.

    ``model`` supplies the architecture (any instance with the same
    shapes — typically the target engine's model); ``topology`` says how
    ``engine_sd`` was sharded. The result keys every optimizer moment
    and master weight by dotted parameter name at the parameter's
    natural shape.
    """
    unknown = set(engine_sd) - ENGINE_STATE_KEYS
    if unknown:
        raise ElasticCompatibilityError(
            f"engine state keys {sorted(unknown)} have no reshard mapping "
            "(update repro.elastic.reshard and ENGINE_STATE_KEYS)"
        )
    opt = engine_sd["optimizer"]
    slots: list[dict] = opt["slots"]
    masters: list | None = opt.get("master")
    keys = _slot_keys(slots)
    names = [name for name, _ in model.named_parameters()]

    canon_slots: dict[str, dict[str, np.ndarray]] = {n: {} for n in names}
    canon_master: dict[str, np.ndarray] | None = None if masters is None else {}

    kind = _slot_layout(topology)
    if kind == "fsdp":
        specs = unit_param_specs(model)
        s = topology.shard_size or 1
        expect = len(specs) * s
        if len(slots) != expect:
            raise ElasticCompatibilityError(
                f"optimizer has {len(slots)} flat-shard slots but the model "
                f"at shard_size={s} needs {expect}; the snapshot topology "
                f"({topology.describe()}) does not match this state"
            )
        for u, spec in enumerate(specs):
            unit_slots = slots[u * s : (u + 1) * s]
            for key in sorted(keys):
                flat = _gather_unit_flat(
                    [sl[key] for sl in unit_slots], spec, f"moment {key!r}"
                )
                for pname, arr in _unit_params(flat, spec).items():
                    canon_slots[pname][key] = arr
            if masters is not None:
                flat = _gather_unit_flat(
                    masters[u * s : (u + 1) * s], spec, "master weights"
                )
                for pname, arr in _unit_params(flat, spec).items():
                    canon_master[pname] = arr  # type: ignore[index]
    elif kind == "ddp":
        if len(slots) != len(names):
            raise ElasticCompatibilityError(
                f"optimizer has {len(slots)} per-parameter slots but the "
                f"model has {len(names)} parameters"
            )
        for name, slot in zip(names, slots):
            canon_slots[name] = {k: np.asarray(v).copy() for k, v in slot.items()}
        if masters is not None:
            for name, m in zip(names, masters):
                canon_master[name] = np.asarray(m).copy()  # type: ignore[index]
    else:
        raise ElasticCompatibilityError(f"unknown engine kind {topology.kind!r}")

    return {
        "model": {k: np.asarray(v).copy() for k, v in engine_sd["model"].items()},
        "optim": {
            "t": int(opt["t"]),
            "lr": float(opt["lr"]),
            "slots": canon_slots,
            "master": canon_master,
        },
        "scaler": dict(engine_sd["scaler"]),
        "step_count": int(engine_sd["step_count"]),
    }


def decanonicalize(canonical: dict, model: "Module", topology: TopologySpec) -> dict:
    """Lower canonical state onto a target topology's engine state dict."""
    names = [name for name, _ in model.named_parameters()]
    canon_slots: dict[str, dict[str, np.ndarray]] = canonical["optim"]["slots"]
    canon_master: dict[str, np.ndarray] | None = canonical["optim"]["master"]
    keys = _slot_keys(list(canon_slots.values()))

    kind = _slot_layout(topology)
    if kind == "fsdp":
        specs = unit_param_specs(model)
        s = topology.shard_size or 1
        slots: list[dict] = [dict() for _ in range(len(specs) * s)]
        masters: list | None = None if canon_master is None else [None] * (
            len(specs) * s
        )
        for u, spec in enumerate(specs):
            for key in sorted(keys):
                per_param = {
                    pname: canon_slots[pname][key] for pname, _, _ in spec.layout
                }
                for j, shard in enumerate(_split_unit_flat(per_param, spec, s)):
                    slots[u * s + j][key] = shard
            if masters is not None:
                per_param = {
                    pname: canon_master[pname] for pname, _, _ in spec.layout
                }
                for j, shard in enumerate(_split_unit_flat(per_param, spec, s)):
                    masters[u * s + j] = shard
    elif kind == "ddp":
        slots = [dict(canon_slots[name]) for name in names]
        masters = (
            None
            if canon_master is None
            else [canon_master[name] for name in names]
        )
    else:
        raise ElasticCompatibilityError(f"unknown engine kind {topology.kind!r}")

    opt: dict = {
        "t": canonical["optim"]["t"],
        "lr": canonical["optim"]["lr"],
        "slots": slots,
    }
    if masters is not None:
        opt["master"] = masters
    return {
        "model": dict(canonical["model"]),
        "optimizer": opt,
        "scaler": dict(canonical["scaler"]),
        "step_count": canonical["step_count"],
    }


# -- end-to-end remapping ---------------------------------------------------


def _check_reshardable(src: TopologySpec, dst: TopologySpec) -> None:
    if not src.same_trajectory(dst):
        raise ElasticCompatibilityError(
            f"cannot reshard {src.describe()} -> {dst.describe()}: the "
            "reduction layout and precision must match for the fp32 "
            "trajectory to continue bit-exact. Pick a target allocation "
            "from repro.elastic.compatible_allocations(layout) instead."
        )


def reshard_engine_state(
    engine_sd: dict,
    model: "Module",
    src: TopologySpec,
    dst: TopologySpec,
) -> dict:
    """Remap an engine snapshot from topology ``src`` onto ``dst``.

    Exact: loading the result into a ``dst``-shaped engine and training
    continues the ``src`` trajectory bit-for-bit (the reduction layouts
    must match — checked). ``model`` is any same-architecture instance.
    """
    _check_reshardable(src, dst)
    if src.same_shape(dst):
        return engine_sd
    return decanonicalize(canonicalize(engine_sd, model, src), model, dst)


def reshard_trainer_state(
    trainer_sd: dict,
    model: "Module",
    src: TopologySpec,
    dst: TopologySpec,
) -> dict:
    """Remap a trainer snapshot (engine + history) across topologies."""
    unknown = set(trainer_sd) - TRAINER_STATE_KEYS
    if unknown:
        raise ElasticCompatibilityError(
            f"trainer state keys {sorted(unknown)} have no reshard mapping "
            "(update repro.elastic.reshard and TRAINER_STATE_KEYS)"
        )
    return {
        "engine": reshard_engine_state(trainer_sd["engine"], model, src, dst),
        "history": {
            k: np.asarray(v).copy() for k, v in trainer_sd["history"].items()
        },
    }
