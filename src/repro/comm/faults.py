"""Fault injection ("chaos") for the simulated collective stack.

At the paper's scale (up to 64 Frontier nodes) rank failures, transient
link errors, and stragglers are routine operational facts, and a training
system's robustness claims are untestable without a way to *produce*
those faults on demand. This module provides:

- :class:`FaultSpec` / :class:`FaultPlan` — a deterministic, seedable
  description of which collective calls fail and how. The
  :class:`~repro.comm.collectives.SimComm` engine consults the plan on
  every collective invocation.
- :class:`CollectiveError` — the typed error every injected failure
  surfaces as (the analogue of an RCCL/NCCL error or watchdog timeout).
  Dropped and corrupted buffers are *detected* (CRC32 of the sender's
  buffer vs what arrived, mirroring real transport checksums) and
  converted into :class:`CollectiveError`, so the engine-facing contract
  is uniform: a faulted collective raises before producing any output.
- :class:`RetryPolicy` / :func:`call_with_retry` — bounded
  retry-with-exponential-backoff used by the DDP/FSDP engines. Backoff
  is *simulated* time: it is charged to
  :class:`~repro.comm.collectives.CommStats` (``backoff_seconds``), never
  slept for real.

Fault kinds
-----------
``transient``
    The collective fails outright (raises) before any output is written.
``drop``
    One rank's contribution is lost in flight; the receive side detects
    the missing buffer and raises.
``corrupt``
    One rank's buffer is bit-flipped in flight; the CRC32 integrity check
    detects the mismatch and raises. The caller's buffers are never
    mutated (corruption happens to the in-flight copy).
``straggler``
    One rank is slow. Numerics are unaffected; the delay is charged to
    ``CommStats.straggler_seconds_by_rank`` so the performance layer can
    account for it.

Because every failing attempt raises *before* output is produced, and the
collectives are pure functions of their input buffers, a retried
collective is bit-identical to an uninterrupted one — the invariant the
chaos test campaign (``-m chaos``) asserts end to end.
"""

from __future__ import annotations

import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "COLLECTIVE_OPS",
    "FAULT_KINDS",
    "CollectiveError",
    "FaultSpec",
    "FaultPlan",
    "RetryPolicy",
    "call_with_retry",
    "retry_collective",
]

#: Collective op classes a fault can target.
COLLECTIVE_OPS = ("all_reduce", "all_gather", "reduce_scatter", "broadcast")

#: Supported fault kinds.
FAULT_KINDS = ("transient", "drop", "corrupt", "straggler")


class CollectiveError(RuntimeError):
    """A collective operation failed (injected or detected in flight).

    Attributes
    ----------
    op:
        The collective op class (``"all_reduce"``, ...).
    kind:
        The fault kind that caused the failure.
    ranks:
        Global ranks of the participating group.
    rank:
        The victim global rank, when the fault targets one rank.
    """

    def __init__(
        self,
        op: str,
        kind: str,
        ranks: tuple[int, ...] = (),
        rank: int | None = None,
        message: str = "",
    ):
        self.op = op
        self.kind = kind
        self.ranks = tuple(ranks)
        self.rank = rank
        detail = message or f"{kind} fault on {op}"
        where = f" (group {self.ranks}" + (
            f", rank {rank})" if rank is not None else ")"
        )
        super().__init__(detail + where)


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    Parameters
    ----------
    op:
        Collective op class the fault targets.
    kind:
        One of :data:`FAULT_KINDS`.
    call_index:
        The fault arms on the ``call_index``-th invocation (0-based,
        counted per op class) and stays armed until consumed.
    times:
        How many invocations it affects once armed. ``times=1`` models a
        transient glitch (the engine's first retry succeeds);
        ``times > max_retries`` models a hard failure that exhausts the
        retry budget.
    rank:
        Group-local index of the victim rank (drop / corrupt /
        straggler); taken modulo the group size at injection time.
    delay_s:
        Straggler delay in simulated seconds.
    """

    op: str
    kind: str = "transient"
    call_index: int = 0
    times: int = 1
    rank: int = 0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in COLLECTIVE_OPS:
            raise ValueError(f"unknown collective op {self.op!r}; expected one of {COLLECTIVE_OPS}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.call_index < 0:
            raise ValueError(f"call_index must be non-negative, got {self.call_index}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.rank < 0:
            raise ValueError(f"rank must be non-negative, got {self.rank}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")
        if self.kind == "straggler" and self.delay_s == 0.0:
            raise ValueError("straggler faults need a positive delay_s")


class FaultPlan:
    """A deterministic schedule of collective faults.

    The plan keeps one invocation counter per op class; a spec fires once
    the counter reaches its ``call_index`` and is consumed after
    ``times`` firings. Plans are single-use: they carry mutable arming
    state, so build a fresh plan per run.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.specs = list(specs)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._calls: dict[str, int] = defaultdict(int)
        self._remaining = [s.times for s in self.specs]

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_faults: int = 4,
        ops: Sequence[str] = COLLECTIVE_OPS,
        kinds: Sequence[str] = ("transient", "drop", "corrupt"),
        max_call_index: int = 16,
        times: int = 1,
    ) -> "FaultPlan":
        """Draw ``n_faults`` random specs deterministically from ``seed``."""
        if n_faults < 0:
            raise ValueError(f"n_faults must be non-negative, got {n_faults}")
        rng = np.random.default_rng(seed)
        specs = []
        for _ in range(n_faults):
            kind = str(rng.choice(list(kinds)))
            specs.append(
                FaultSpec(
                    op=str(rng.choice(list(ops))),
                    kind=kind,
                    call_index=int(rng.integers(max_call_index)),
                    times=times,
                    rank=int(rng.integers(64)),
                    delay_s=float(rng.uniform(1e-3, 1e-1)) if kind == "straggler" else 0.0,
                )
            )
        return cls(specs, seed=seed)

    @property
    def rng(self) -> np.random.Generator:
        """The plan's corruption-byte stream (deterministic from seed)."""
        return self._rng

    def pending(self) -> int:
        """Number of specs not yet fully consumed."""
        return sum(1 for r in self._remaining if r > 0)

    def consult(self, op: str, group_size: int) -> list[FaultSpec]:
        """Advance the op counter and return the specs firing on this call."""
        idx = self._calls[op]
        self._calls[op] += 1
        fired = []
        for i, spec in enumerate(self.specs):
            if spec.op != op or self._remaining[i] <= 0 or idx < spec.call_index:
                continue
            self._remaining[i] -= 1
            fired.append(spec)
        return fired


def corrupt_copy(buf: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """An in-flight copy of ``buf`` with one byte flipped (never mutates ``buf``)."""
    raw = bytearray(np.ascontiguousarray(buf).tobytes())
    if not raw:
        return buf.copy()
    pos = int(rng.integers(len(raw)))
    raw[pos] ^= 0xFF
    return np.frombuffer(bytes(raw), dtype=buf.dtype).reshape(buf.shape)


def buffer_crc(buf: np.ndarray) -> int:
    """CRC32 of a buffer's raw bytes (the simulated transport checksum)."""
    return zlib.crc32(np.ascontiguousarray(buf).tobytes())


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient collective failures.

    Backoff is deterministic (no jitter) and expressed in *simulated*
    seconds; engines charge it to ``CommStats.backoff_seconds`` instead
    of sleeping.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be non-negative, got {self.backoff_base_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return self.backoff_base_s * self.backoff_factor ** (attempt - 1)


def call_with_retry(
    fn: Callable[[], object],
    policy: RetryPolicy | None,
    stats=None,
):
    """Run ``fn``, retrying on :class:`CollectiveError` per ``policy``.

    Each retry charges its backoff to ``stats`` (a
    :class:`~repro.comm.collectives.CommStats`) when given. With
    ``policy=None`` the first failure propagates unretried. Raises the
    last :class:`CollectiveError` once the retry budget is exhausted.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except CollectiveError as err:
            attempt += 1
            if policy is None or attempt > policy.max_retries:
                raise
            if stats is not None:
                stats.record_retry(err.op, policy.delay(attempt))


def retry_collective(
    fn: Callable[[], object],
    policy: RetryPolicy | None,
    stats,
    bus,
    op: str,
    nbytes: float,
    **span_tags,
):
    """:func:`call_with_retry` as an engine issues every collective.

    With an enabled telemetry ``bus`` the call is wrapped in a
    ``comm.<op>`` span (bytes and ``span_tags`` attached), and any
    retries / backoff it incurred are emitted as ``comm.retries`` /
    ``comm.backoff_s`` counters, also when the retry budget runs out and
    the error propagates, so backoff is never dropped from the step's
    account. ``bus=None`` or a disabled bus only retries.
    """
    if bus is None or not bus.enabled:
        return call_with_retry(fn, policy, stats=stats)
    retries0 = stats.total_retries
    backoff0 = stats.backoff_seconds
    try:
        with bus.span(f"comm.{op}", bytes=float(nbytes), **span_tags):
            return call_with_retry(fn, policy, stats=stats)
    finally:
        if stats.total_retries != retries0:
            bus.counter("comm.retries", stats.total_retries - retries0, op=op)
            bus.counter("comm.backoff_s", stats.backoff_seconds - backoff0, op=op)
