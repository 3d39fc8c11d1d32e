"""Executable collectives over per-rank NumPy buffers.

The mini-FSDP engine runs all ranks of a job inside one process (SPMD
simulation): each rank owns its own NumPy buffers, and a collective is a
function of the per-rank buffers of one :class:`~repro.comm.world.Group`.

Each collective is executed *directly*: vectorized NumPy over contiguous
arrays, contributions combined sequentially in group order. What a
bandwidth-optimal NCCL/RCCL ring would move for the same call is priced,
not run — the chunk-by-chunk ring algorithms live beside the tests
(``tests/test_comm/ring.py``) as the oracle the direct forms and the
closed-form byte formulas are checked against.

Byte accounting: every call records, per participating rank, the number of
bytes a ring algorithm would *send on the wire*:

====================  =========================================
collective            bytes sent per rank (S = full data size)
====================  =========================================
all-gather            ``(g - 1) / g * S``
reduce-scatter        ``(g - 1) / g * S``
all-reduce            ``2 * (g - 1) / g * S``
broadcast             ``S`` at root via a binomial tree (logged
                      as total tree traffic ``S * (g - 1)``)
====================  =========================================

Dtype-aware accounting: the SPMD substrate computes in float64, but the
*logical* wire payload is the training precision's. Reduce-type
collectives accept ``wire_dtype`` ("fp32" default / "bf16"), which
scales ``S`` by :data:`repro.precision.WIRE_FRACTION` before recording —
so a bf16 gradient reduction books exactly half the bytes of the same
call at full precision, split out per dtype in
``CommStats.bytes_by_dtype``.

Gradient accumulation: reduce-type collectives accept
``parts_per_rank=k``: ``k * g`` buffers (round-major — all of round 0's
contributions, then round 1's, ...) are reduced in **one** sequential
pass in contribution order (bit-identical to ``np.stack(...).mean(0)``,
whose axis-0 reduction is sequential too) and ``g`` outputs are
returned. This makes a ``k``-round accumulated step bit-identical to
the same reduction in a ``k * g``-rank world.
Wire accounting stays at one buffer's payload over ``g`` ranks — the
accumulated contributions are combined locally before hitting the wire
(PyTorch ``no_sync`` semantics), not retransmitted per round.

Receive buffers: ``all_gather`` / ``reduce_scatter`` / ``all_reduce`` take
NumPy's ``out=``. ``out=None`` allocates fresh receive buffers (aliasing
no input and not each other) and then runs the same fill that ``out=``
runs on the caller's — after the call is on the ledger and the fault
plan has been consulted, so a failed attempt never writes to ``out`` and
a retry may target live memory. A gather shard that *is* its own slot of
``out`` is the in-place case and moves nothing (NCCL/RCCL's ``sendbuff ==
recvbuff + rank * count``, how PyTorch FSDP gathers into its flat
parameter); any other overlap of an input with ``out`` — a reduce's
included — is undefined and not checked.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.comm.faults import (
    CollectiveError,
    FaultPlan,
    buffer_crc,
    corrupt_copy,
)
from repro.comm.world import Group, pair_group
from repro.precision.bf16 import wire_fraction

__all__ = ["SimComm", "CommStats", "ReduceOp"]

#: Reduction operations supported by reduce-type collectives.
ReduceOp = ("sum", "mean", "max")


@dataclass
class CommStats:
    """Per-operation call and wire-byte counters.

    ``bytes_by_op[op]`` accumulates bytes sent summed over all
    participating ranks; ``calls_by_op[op]`` counts collective invocations
    (one per group call, not per rank). Failed (fault-injected) attempts
    are recorded too — wire traffic is spent before a failure is
    detected — so retried collectives show up as extra calls and bytes
    relative to a fault-free run.

    Resilience accounting: ``retries_by_op`` counts engine-level retries,
    ``backoff_seconds`` accumulates the simulated retry backoff, and
    ``straggler_seconds_by_rank`` the injected per-rank straggler delay
    (both are simulated-time charges for the performance layer, never
    real sleeps).
    """

    calls_by_op: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes_by_op: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    bytes_by_dtype: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    retries_by_op: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    backoff_seconds: float = 0.0
    straggler_seconds_by_rank: dict[int, float] = field(
        default_factory=lambda: defaultdict(float)
    )

    def record(
        self, op: str, group_size: int, full_bytes: float, dtype: str = "fp32"
    ) -> None:
        """Account one collective call of ``full_bytes`` over ``group_size`` ranks.

        ``full_bytes`` is the already-dtype-scaled logical payload;
        ``dtype`` only labels which ``bytes_by_dtype`` bin the resulting
        wire bytes land in.
        """
        self.calls_by_op[op] += 1
        if op == "send":
            # Point-to-point: the payload crosses the wire exactly once.
            wire = full_bytes
            self.bytes_by_op[op] += wire
            self.bytes_by_dtype[dtype] += wire
            return
        g = group_size
        if op == "all_gather" or op == "reduce_scatter":
            wire = (g - 1) / g * full_bytes * g
        elif op == "all_reduce":
            wire = 2 * (g - 1) / g * full_bytes * g
        elif op == "broadcast":
            wire = full_bytes * (g - 1)
        else:
            raise ValueError(f"unknown collective op {op!r}")
        self.bytes_by_op[op] += wire
        self.bytes_by_dtype[dtype] += wire

    def record_retry(self, op: str, backoff_s: float) -> None:
        """Account one engine-level retry of ``op`` and its backoff."""
        self.retries_by_op[op] += 1
        self.backoff_seconds += backoff_s

    def record_straggler(self, rank: int, seconds: float) -> None:
        """Charge an injected straggler delay to ``rank``."""
        self.straggler_seconds_by_rank[rank] += seconds

    @property
    def total_calls(self) -> int:
        """Collective calls across all operation types."""
        return sum(self.calls_by_op.values())

    @property
    def total_bytes(self) -> float:
        """Wire bytes across all operation types."""
        return sum(self.bytes_by_op.values())

    @property
    def total_retries(self) -> int:
        """Engine-level retries across all operation types."""
        return sum(self.retries_by_op.values())

    @property
    def straggler_seconds(self) -> float:
        """Total injected straggler delay across ranks."""
        return sum(self.straggler_seconds_by_rank.values())

    def reset(self) -> None:
        """Clear all counters."""
        self.calls_by_op.clear()
        self.bytes_by_op.clear()
        self.bytes_by_dtype.clear()
        self.retries_by_op.clear()
        self.backoff_seconds = 0.0
        self.straggler_seconds_by_rank.clear()


def _reduce_to(dst: np.ndarray, parts: list[np.ndarray], op: str) -> None:
    """``dst[...] = np.stack(parts).<op>(0)`` bit for bit, with no stack:
    ``parts`` are combined in order, then a mean divides once. (One
    exception: NumPy sums a stack of eight or more *one-element* parts
    pairwise; this stays sequential at every size.)"""
    combine = np.maximum if op == "max" else np.add
    if len(parts) == 1:
        np.copyto(dst, parts[0])
    else:
        combine(parts[0], parts[1], out=dst)
        for part in parts[2:]:
            combine(dst, part, out=dst)
    if op == "mean":
        np.true_divide(dst, len(parts), out=dst)


class SimComm:
    """Collective engine over per-rank buffers.

    All methods take ``buffers``: a list with one array per rank of
    ``group``, ordered by group rank. They return new arrays (never
    aliasing inputs across ranks) so that rank-local mutation afterwards
    cannot leak between ranks — the in-process equivalent of separate
    address spaces — unless handed receive buffers (``out=``, module
    docstring), where the caller owns aliasing as with NCCL in place.

    Parameters
    ----------
    fault_plan:
        Optional :class:`~repro.comm.faults.FaultPlan` consulted on every
        collective call. Injected failures surface as
        :class:`~repro.comm.faults.CollectiveError` *before* any output
        is produced or any byte of ``out=`` is written (the attempt's
        wire traffic is still recorded), so a retry re-runs a pure
        function of unchanged inputs and is bit-identical to an
        unfaulted call. May be (re)assigned between steps.
    """

    def __init__(self, fault_plan: FaultPlan | None = None):
        self.stats = CommStats()
        self.fault_plan = fault_plan

    # -- helpers ---------------------------------------------------------

    def _inject_faults(self, op: str, group: Group, buffers: list[np.ndarray]) -> None:
        """Consult the fault plan; raise CollectiveError for failing specs.

        Called after stats recording: a failed attempt has already moved
        (some of) its data, so its traffic stays on the books — and
        before the first write to any receive buffer.
        """
        if self.fault_plan is None:
            return
        for spec in self.fault_plan.consult(op, group.size):
            if spec.kind == "straggler":
                victim = group.ranks[spec.rank % group.size]
                self.stats.record_straggler(victim, spec.delay_s)
                continue
            if spec.kind == "transient":
                raise CollectiveError(
                    op, "transient", group.ranks, message="injected transient failure"
                )
            local = spec.rank % group.size
            victim = group.ranks[local]
            sent = buffers[local]
            sent_crc = buffer_crc(sent)
            if spec.kind == "drop":
                received = None
            else:  # corrupt: bit-flip an in-flight copy, never the input
                received = corrupt_copy(sent, self.fault_plan.rng)
            if received is None:
                raise CollectiveError(
                    op, "drop", group.ranks, rank=victim,
                    message="peer buffer lost in flight",
                )
            if buffer_crc(received) != sent_crc:
                raise CollectiveError(
                    op, "corrupt", group.ranks, rank=victim,
                    message="checksum mismatch on received buffer",
                )

    @staticmethod
    def _check(
        buffers: list[np.ndarray],
        group: Group,
        same_shape: bool = True,
        parts_per_rank: int = 1,
    ) -> None:
        if parts_per_rank < 1:
            raise ValueError(f"parts_per_rank must be >= 1, got {parts_per_rank}")
        expected = group.size * parts_per_rank
        if len(buffers) != expected:
            raise ValueError(
                f"expected {expected} buffers for group {group.ranks} "
                f"(parts_per_rank={parts_per_rank}), got {len(buffers)}"
            )
        if same_shape:
            shapes = {b.shape for b in buffers}
            if len(shapes) != 1:
                raise ValueError(f"buffers must share one shape, got {shapes}")

    @staticmethod
    def _wire_bytes(nbytes: float, wire_dtype: str | None) -> tuple[float, str]:
        """(logical payload bytes, dtype label) for a native-sized buffer."""
        if wire_dtype is None:
            return float(nbytes), "fp32"
        return nbytes * wire_fraction(wire_dtype), wire_dtype

    # -- collectives -----------------------------------------------------

    def all_reduce(
        self,
        buffers: list[np.ndarray],
        group: Group,
        op: str = "sum",
        *,
        parts_per_rank: int = 1,
        out: np.ndarray | None = None,
        wire_dtype: str | None = None,
    ) -> list[np.ndarray]:
        """Reduce across the group; every rank receives the full result.

        With ``parts_per_rank=k`` the call reduces ``k * group.size``
        round-major accumulation contributions in contribution order
        and still returns one output per rank (see module docstring).
        ``out`` is one receive buffer of the buffers' shape, which every
        rank then receives (the simulated ranks share it).
        """
        self._check(buffers, group, parts_per_rank=parts_per_rank)
        if op not in ReduceOp:
            raise ValueError(f"unknown reduce op {op!r}; expected one of {ReduceOp}")
        if out is not None and out.shape != buffers[0].shape:
            raise ValueError(f"out must have the buffers' shape {buffers[0].shape}")
        g = group.size
        full, dtype = self._wire_bytes(buffers[0].nbytes, wire_dtype)
        self.stats.record("all_reduce", g, full, dtype=dtype)
        self._inject_faults("all_reduce", group, buffers)
        recv = out if out is not None else np.empty_like(buffers[0])
        _reduce_to(recv, buffers, op)
        if out is not None:
            return [out] * g
        return [recv] + [recv.copy() for _ in range(g - 1)]

    def all_gather(
        self,
        shards: list[np.ndarray],
        group: Group,
        *,
        out: np.ndarray | None = None,
        wire_dtype: str | None = None,
    ) -> list[np.ndarray]:
        """Concatenate every rank's 1-D shard; every rank gets the whole.

        ``out`` is one 1-D receive buffer of the gathered length, which
        every rank then receives (the simulated ranks share it).
        """
        self._check(shards, group, same_shape=False)
        for s in shards:
            if s.ndim != 1:
                raise ValueError("all_gather operates on 1-D shards")
        g = group.size
        total = sum(s.size for s in shards)
        if out is not None and out.shape != (total,):
            raise ValueError(f"out must be 1-D of the gathered length {total}")
        full, dtype = self._wire_bytes(sum(s.nbytes for s in shards), wire_dtype)
        self.stats.record("all_gather", g, full, dtype=dtype)
        self._inject_faults("all_gather", group, shards)
        recv = out if out is not None else np.empty(total, np.result_type(*shards))
        start = 0
        for s in shards:
            slot = recv[start : start + s.size]
            start += s.size
            if not np.shares_memory(s, slot):  # in place: already there
                slot[...] = s
        if out is not None:
            return [out] * g
        return [recv] + [recv.copy() for _ in range(g - 1)]

    def reduce_scatter(
        self,
        buffers: list[np.ndarray],
        group: Group,
        op: str = "sum",
        *,
        parts_per_rank: int = 1,
        out: list[np.ndarray] | None = None,
        wire_dtype: str | None = None,
    ) -> list[np.ndarray]:
        """Reduce across the group, then shard the result: rank i gets chunk i.

        Buffers must be 1-D with length divisible by the group size (the
        FSDP flat-parameter layer guarantees this by padding). With
        ``parts_per_rank=k``, ``k * group.size`` round-major accumulation
        contributions are combined in order (see module docstring).
        ``out`` lists one 1-D receive buffer of the chunk length per
        rank; chunk ``i`` is reduced straight into ``out[i]``.
        """
        self._check(buffers, group, parts_per_rank=parts_per_rank)
        g = group.size
        n = buffers[0].size
        if buffers[0].ndim != 1:
            raise ValueError("reduce_scatter operates on 1-D buffers")
        if n % g != 0:
            raise ValueError(f"buffer length {n} not divisible by group size {g}")
        if op not in ReduceOp:
            raise ValueError(f"unknown reduce op {op!r}; expected one of {ReduceOp}")
        chunk = n // g
        if out is not None and [o.shape for o in out] != [(chunk,)] * g:
            raise ValueError(f"out must list {g} 1-D buffers of chunk length {chunk}")
        full, dtype = self._wire_bytes(buffers[0].nbytes, wire_dtype)
        self.stats.record("reduce_scatter", g, full, dtype=dtype)
        self._inject_faults("reduce_scatter", group, buffers)
        if out is None:
            out = [np.empty(chunk, buffers[0].dtype) for _ in range(g)]
        for i, dst in enumerate(out):
            lo = i * chunk
            _reduce_to(dst, [b[lo : lo + chunk] for b in buffers], op)
        return list(out)

    def send(
        self,
        buf: np.ndarray,
        src: int,
        dst: int,
        *,
        wire_dtype: str | None = None,
    ) -> np.ndarray:
        """Point-to-point send from ``src`` to ``dst``; returns the received copy.

        The pipeline engine moves stage-boundary activations (forward)
        and their gradients (backward) through this op. The receiver
        must consume the *returned* array — never the sender's buffer —
        mirroring separate address spaces exactly like the collectives.
        Wire accounting books the payload once (no ring factor).
        """
        group = pair_group(src, dst)
        full, dtype = self._wire_bytes(buf.nbytes, wire_dtype)
        self.stats.record("send", group.size, full, dtype=dtype)
        self._inject_faults("send", group, [buf, buf])
        return buf.copy()

    def broadcast(
        self,
        buffers: list[np.ndarray],
        group: Group,
        root_index: int = 0,
        *,
        wire_dtype: str | None = None,
    ) -> list[np.ndarray]:
        """Copy the root group-rank's buffer to every rank."""
        self._check(buffers, group)
        if not 0 <= root_index < group.size:
            raise ValueError(f"root_index {root_index} out of range")
        full, dtype = self._wire_bytes(buffers[root_index].nbytes, wire_dtype)
        self.stats.record("broadcast", group.size, full, dtype=dtype)
        self._inject_faults("broadcast", group, buffers)
        src = buffers[root_index]
        return [src.copy() for _ in range(group.size)]
