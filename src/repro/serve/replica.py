"""Engine replicas, cost-model service estimates, and fault injection.

A *replica* is one copy of the frozen encoder pinned to one (simulated)
GCD. Replicas do the real NumPy forward pass — serving numerics are the
training substrate's numerics — while their *time* behaviour lives on
the virtual clock: each batch occupies the replica for a service window
estimated with the same :mod:`repro.hardware` cost model the perf
simulator uses (encoder FLOPs at the width-dependent achieved
throughput, plus a fixed per-batch launch overhead). That gives the
dispatcher honest, hardware-grounded estimates to balance load with —
:class:`ReplicaPool` sends every batch to the replica whose *estimated
completion time* is smallest (least-loaded dispatch), which with
heterogeneous replicas correctly prefers a fast-busy device over a
slow-idle one when the math says so.

Faults follow the :mod:`repro.comm.faults` pattern: a deterministic,
seedable :class:`ReplicaFaultPlan` arms :class:`ReplicaFaultSpec` entries
against per-replica dispatch counters, and every injected failure
surfaces as a typed :class:`ReplicaError` *before any output is
produced*. Two kinds are modelled: ``raise`` (the batch dies
immediately — an OOM/driver error analogue, detected at dispatch) and
``stall`` (the replica hangs and a watchdog detects it after
``stall_timeout_s`` of virtual time — the wedged-kernel analogue). In
both cases the server requeues the batch's requests exactly once;
a request that faults twice is rejected with ``replica_failure``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ViTConfig
from repro.hardware.gpu import GpuSpec
from repro.perf.compute_model import vit_forward_flops

__all__ = [
    "REPLICA_FAULT_KINDS",
    "ReplicaError",
    "ReplicaFaultSpec",
    "ReplicaFaultPlan",
    "ServiceTimeModel",
    "FixedServiceModel",
    "Replica",
    "ReplicaPool",
]

#: Supported replica fault kinds.
REPLICA_FAULT_KINDS = ("raise", "stall")


class ReplicaError(RuntimeError):
    """A replica failed (or was detected hung) while serving a batch.

    Attributes
    ----------
    replica_id:
        The failing replica.
    kind:
        One of :data:`REPLICA_FAULT_KINDS`.
    detect_delay_s:
        Virtual seconds between dispatch and the failure being
        *detected*: 0 for ``raise`` (the error surfaces immediately),
        the watchdog timeout for ``stall``.
    """

    def __init__(self, replica_id: int, kind: str, detect_delay_s: float = 0.0):
        self.replica_id = replica_id
        self.kind = kind
        self.detect_delay_s = detect_delay_s
        super().__init__(
            f"{kind} fault on replica {replica_id} "
            f"(detected after {detect_delay_s:.3f}s)"
        )


@dataclass(frozen=True)
class ReplicaFaultSpec:
    """One injected replica fault (mirrors :class:`repro.comm.faults.FaultSpec`).

    Parameters
    ----------
    replica_id:
        Which replica misbehaves.
    kind:
        ``"raise"`` or ``"stall"``.
    dispatch_index:
        Arms on the ``dispatch_index``-th batch dispatched *to that
        replica* (0-based) and stays armed until consumed.
    times:
        How many dispatches it affects once armed.
    """

    replica_id: int
    kind: str = "raise"
    dispatch_index: int = 0
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in REPLICA_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {REPLICA_FAULT_KINDS}"
            )
        if self.replica_id < 0:
            raise ValueError(f"replica_id must be non-negative, got {self.replica_id}")
        if self.dispatch_index < 0:
            raise ValueError(
                f"dispatch_index must be non-negative, got {self.dispatch_index}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


class ReplicaFaultPlan:
    """Deterministic schedule of replica faults (single-use, like FaultPlan)."""

    def __init__(self, specs: list[ReplicaFaultSpec] | tuple = ()):
        self.specs = list(specs)
        self._remaining = [s.times for s in self.specs]

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_faults: int = 4,
        n_replicas: int = 2,
        kinds: tuple = REPLICA_FAULT_KINDS,
        max_dispatch_index: int = 8,
        times: int = 1,
    ) -> "ReplicaFaultPlan":
        """Draw ``n_faults`` random specs deterministically from ``seed``."""
        if n_faults < 0:
            raise ValueError(f"n_faults must be non-negative, got {n_faults}")
        rng = np.random.default_rng(seed)
        specs = [
            ReplicaFaultSpec(
                replica_id=int(rng.integers(n_replicas)),
                kind=str(rng.choice(list(kinds))),
                dispatch_index=int(rng.integers(max_dispatch_index)),
                times=times,
            )
            for _ in range(n_faults)
        ]
        return cls(specs)

    def pending(self) -> int:
        """Number of specs not yet fully consumed."""
        return sum(1 for r in self._remaining if r > 0)

    def consult(self, replica_id: int, dispatch_index: int) -> ReplicaFaultSpec | None:
        """The spec firing on this dispatch, consuming one charge; else None."""
        for i, spec in enumerate(self.specs):
            if (
                spec.replica_id == replica_id
                and self._remaining[i] > 0
                and dispatch_index >= spec.dispatch_index
            ):
                self._remaining[i] -= 1
                return spec
        return None


@dataclass(frozen=True)
class ServiceTimeModel:
    """Hardware-cost-model service time for one replica.

    ``estimate(b)`` = per-batch launch overhead + encoder forward FLOPs
    for ``b`` images at the GCD's width-dependent achieved throughput
    (:meth:`repro.hardware.gpu.GpuSpec.time_for_flops`). The same
    accounting the perf simulator applies to training steps, minus the
    backward pass (serving is inference-only).
    """

    encoder: ViTConfig
    gpu: GpuSpec
    overhead_s: float = 1e-4

    def __post_init__(self) -> None:
        if self.overhead_s < 0:
            raise ValueError(f"overhead_s must be non-negative, got {self.overhead_s}")

    def estimate(self, batch_size: int) -> float:
        """Virtual seconds to serve a batch of ``batch_size`` images."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        flops = vit_forward_flops(self.encoder) * batch_size
        return self.overhead_s + self.gpu.time_for_flops(flops, self.encoder.width)


@dataclass(frozen=True)
class FixedServiceModel:
    """Constant-rate service model (for tests and synthetic studies)."""

    images_per_s: float
    overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if self.images_per_s <= 0:
            raise ValueError(f"images_per_s must be positive, got {self.images_per_s}")
        if self.overhead_s < 0:
            raise ValueError(f"overhead_s must be non-negative, got {self.overhead_s}")

    def estimate(self, batch_size: int) -> float:
        """Virtual seconds to serve ``batch_size`` images at the fixed rate."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return self.overhead_s + batch_size / self.images_per_s


class Replica:
    """One encoder replica: real compute, virtual service time.

    Autoscaling extensions (PR 10): a replica knows when it joined the
    fleet (``added_at_s``; new replicas start busy until their warm-up
    window passes), whether it is draining toward retirement
    (``retiring`` — it finishes its in-flight batch but takes no new
    ones), and optionally what its device costs (``usd_per_hour``, for
    the capacity planner's measured-cost ledger).
    """

    def __init__(
        self,
        replica_id: int,
        model,
        service,
        *,
        added_at_s: float = 0.0,
        warmup_s: float = 0.0,
        usd_per_hour: float = 0.0,
    ):
        self.replica_id = replica_id
        self.model = model
        self.service = service
        self.added_at_s = added_at_s
        self.busy_until_s = added_at_s + warmup_s
        self.total_busy_s = 0.0
        self.dispatches = 0
        self.retiring = False
        self.retired_at_s: float | None = None
        self.usd_per_hour = usd_per_hour

    def free_at(self, now_s: float) -> float:
        """Earliest virtual time this replica can start a new batch."""
        return max(now_s, self.busy_until_s)

    def active_seconds(self, now_s: float) -> float:
        """Virtual seconds this replica has been part of the fleet."""
        end = self.retired_at_s if self.retired_at_s is not None else now_s
        return max(0.0, end - self.added_at_s)

    def completion_estimate(self, now_s: float, batch_size: int) -> float:
        """Estimated virtual finish time of a batch dispatched now."""
        return self.free_at(now_s) + self.service.estimate(batch_size)

    def run_batch(
        self,
        images: np.ndarray,
        now_s: float,
        fault: ReplicaFaultSpec | None = None,
        stall_timeout_s: float = 1.0,
    ) -> tuple[np.ndarray, float]:
        """Serve one batch: returns ``(features, service_s)`` or raises.

        The forward pass is the model's real :meth:`encode_features`;
        ``service_s`` is the cost-model window the batch occupies on the
        virtual clock. An armed fault raises :class:`ReplicaError`
        *before* any features are produced (and skips the compute — a
        failed batch yields nothing a caller could observe).
        """
        self.dispatches += 1
        if fault is not None:
            if fault.kind == "stall":
                # The wedged replica holds the device until the watchdog
                # fires; charge the full timeout window.
                self.busy_until_s = now_s + stall_timeout_s
                self.total_busy_s += stall_timeout_s
                raise ReplicaError(self.replica_id, "stall", stall_timeout_s)
            raise ReplicaError(self.replica_id, "raise", 0.0)
        service_s = self.service.estimate(len(images))
        features = self.model.encode_features(images)
        self.busy_until_s = now_s + service_s
        self.total_busy_s += service_s
        return features, service_s


class ReplicaPool:
    """N replicas over one frozen model, with least-loaded dispatch.

    All replicas share the model object (weights are frozen and the
    event loop is single-threaded, so sharing is safe); what differs per
    replica is its service model — heterogeneous pools (e.g. one fast
    and one slow GCD) are supported and exercised in tests.

    The pool is *elastic*: an autoscaler may :meth:`add_replica` (it
    joins after a warm-up window) or :meth:`begin_retire` one
    (it drains its in-flight batch, then :meth:`reap` removes it).
    Dispatch only ever considers active, non-retiring replicas; retired
    replicas stay on the books for the measured-cost ledger.
    """

    def __init__(self, model, services: list, prices: list | None = None):
        if not services:
            raise ValueError("pool needs at least one replica service model")
        if prices is not None and len(prices) != len(services):
            raise ValueError(
                f"{len(prices)} prices for {len(services)} services"
            )
        self.model = model
        self.replicas = [
            Replica(
                i,
                model,
                svc,
                usd_per_hour=prices[i] if prices is not None else 0.0,
            )
            for i, svc in enumerate(services)
        ]
        self.retired: list[Replica] = []
        self._next_id = len(self.replicas)

    def __len__(self) -> int:
        return len(self.replicas)

    @property
    def n_active(self) -> int:
        """Replicas accepting new batches (not draining)."""
        return sum(1 for r in self.replicas if not r.retiring)

    def _dispatchable(self) -> list[Replica]:
        return [r for r in self.replicas if not r.retiring]

    def earliest_free_s(self, now_s: float) -> float:
        """Virtual time the first non-retiring replica becomes available.

        ``inf`` when every replica is draining (transient state the
        autoscaler resolves at its next tick; the min-replicas bound
        keeps it from persisting). One pass: ``max(now, min busy_until)``
        only selects among its inputs, so it equals the minimum of every
        replica's :meth:`Replica.free_at` exactly.
        """
        earliest = float("inf")
        for r in self.replicas:
            if not r.retiring and r.busy_until_s < earliest:
                earliest = r.busy_until_s
        return max(now_s, earliest)

    def select(self, now_s: float, batch_size: int) -> Replica:
        """The replica with the smallest estimated completion time.

        Ties break on replica id, keeping dispatch fully deterministic.
        """
        return min(
            self._dispatchable(),
            key=lambda r: (r.completion_estimate(now_s, batch_size), r.replica_id),
        )

    def add_replica(
        self,
        service,
        now_s: float,
        *,
        warmup_s: float = 0.0,
        usd_per_hour: float = 0.0,
    ) -> Replica:
        """Grow the fleet by one replica, ready after ``warmup_s``."""
        replica = Replica(
            self._next_id,
            self.model,
            service,
            added_at_s=now_s,
            warmup_s=warmup_s,
            usd_per_hour=usd_per_hour,
        )
        self._next_id += 1
        self.replicas.append(replica)
        return replica

    def begin_retire(self, now_s: float) -> Replica | None:
        """Mark one replica for retirement (drain, don't interrupt).

        Prefers an idle replica; otherwise the one finishing soonest.
        Among candidates the highest id goes first (newest-out, fully
        deterministic). Returns the replica, or ``None`` when every
        replica is already retiring.
        """
        candidates = self._dispatchable()
        if not candidates:
            return None
        replica = min(
            candidates, key=lambda r: (r.free_at(now_s), -r.replica_id)
        )
        replica.retiring = True
        return replica

    def reap(self, now_s: float) -> list[Replica]:
        """Remove retiring replicas whose in-flight work has drained."""
        done = [
            r for r in self.replicas if r.retiring and r.busy_until_s <= now_s
        ]
        if done:
            gone = {r.replica_id for r in done}
            self.replicas = [
                r for r in self.replicas if r.replica_id not in gone
            ]
            for r in done:
                r.retired_at_s = now_s
            self.retired.extend(done)
        return done

    def fleet_cost_usd(self, now_s: float) -> float:
        """Measured cost: Σ replica active-seconds × its hourly price."""
        everyone = list(self.replicas) + list(self.retired)
        return sum(
            r.active_seconds(now_s) * r.usd_per_hour / 3600.0 for r in everyone
        )
