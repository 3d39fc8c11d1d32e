"""Cost-aware capacity planning, reconciled predicted-vs-measured.

Sizing a serving fleet is the inference-side twin of the paper's
training-throughput planning: pick hardware, predict capacity from the
cost model, then *check the prediction against a measured run* (the
mesh perf model's reconciliation pattern, applied to traffic instead of
collective bytes).

**Formulation.** Given a traffic forecast (the peak offered rate of the
:class:`~repro.serve.traffic.RateProfile` mix), an SLO (latency bound +
attainment target), and a heterogeneous catalog of priced replica types
(:class:`ReplicaType` — a service-time model plus an hourly price from
:mod:`repro.hardware.pricing`), find non-negative integer counts
``n_t`` minimizing hourly spend ``Σ n_t · price_t`` subject to

``Σ n_t · capacity_t · utilization_target ≥ peak_rate``

where ``capacity_t = batch / service_t.estimate(batch)`` is the type's
saturated throughput at the planning batch size, and
``utilization_target < 1`` is the queueing headroom that keeps the
latency SLO attainable (an M/D/c fleet driven at ~70% holds its tail;
at 100% the queue is unstable). The search is exact: bounded
enumeration over count vectors with cost pruning — catalogs are small
(a handful of types, tens of replicas), so exactness is cheap and the
tie-break (cost, then fleet size, then counts) is deterministic.

**Reconciliation.** :func:`reconcile_plan` takes the plan and the
:class:`~repro.serve.traffic.OpenLoopResult` of actually serving the
forecast traffic on the planned fleet, and settles, row by row, into
the one :class:`~repro.telemetry.report.Reconciliation`:

- measured SLO attainment ≥ the plan's target (the SLO holds in fact,
  not just in algebra);
- measured cost/hour within ``cost_tolerance`` of the predicted
  cost/hour (the spend model is honest — warm-up windows and autoscale
  churn are the usual sources of drift);
- measured peak utilization ≤ 1 (the fleet was never asked for more
  than it has).

The ``traffic`` row of ``python -m repro.experiments`` claims the
resulting ``reconciled`` flag, and tier-1 pins the planned run by value,
so a planner whose predictions drift from the measured open-loop
behaviour fails the same way a drifting perf model does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.pricing import DEFAULT_FLEET, GcdPrice
from repro.serve.replica import ServiceTimeModel
from repro.serve.traffic import OpenLoopResult
from repro.telemetry.report import Reconciliation, reconcile

__all__ = [
    "ReplicaType",
    "CapacityPlan",
    "plan_capacity",
    "reconcile_plan",
]


@dataclass(frozen=True)
class ReplicaType:
    """One deployable replica flavour: service model + hourly price."""

    name: str
    service: object  # anything with .estimate(batch_size) -> seconds
    usd_per_hour: float

    def __post_init__(self) -> None:
        if self.usd_per_hour <= 0:
            raise ValueError(
                f"usd_per_hour must be positive, got {self.usd_per_hour}"
            )

    @classmethod
    def from_price(cls, price: GcdPrice, encoder_cfg) -> "ReplicaType":
        """Build from a priced GCD and the encoder it will serve."""
        return cls(
            name=price.name,
            service=ServiceTimeModel(encoder_cfg, price.gpu),
            usd_per_hour=price.usd_per_hour,
        )

    @classmethod
    def catalog(
        cls, encoder_cfg, prices: tuple = DEFAULT_FLEET
    ) -> tuple["ReplicaType", ...]:
        """The default heterogeneous catalog for one encoder."""
        return tuple(cls.from_price(p, encoder_cfg) for p in prices)

    def capacity_ips(self, batch_size: int) -> float:
        """Saturated throughput at ``batch_size`` (images/s, virtual)."""
        return batch_size / self.service.estimate(batch_size)


@dataclass(frozen=True)
class CapacityPlan:
    """The planner's verdict: which replicas, and what it predicts."""

    mix: tuple  # ((ReplicaType, count), ...) — count > 0 entries only
    peak_rate_ips: float
    batch_size: int
    utilization_target: float
    slo_s: float
    attainment_target: float
    predicted_capacity_ips: float
    predicted_cost_per_hour: float

    @property
    def n_replicas(self) -> int:
        """Total replicas in the planned fleet."""
        return sum(count for _, count in self.mix)

    @property
    def predicted_utilization(self) -> float:
        """Offered peak over planned capacity (≤ utilization_target)."""
        if self.predicted_capacity_ips <= 0:
            return 0.0
        return self.peak_rate_ips / self.predicted_capacity_ips

    def services(self) -> list:
        """Per-replica service models, in deterministic mix order."""
        out = []
        for rtype, count in self.mix:
            out.extend([rtype.service] * count)
        return out

    def prices(self) -> list[float]:
        """Per-replica hourly prices aligned with :meth:`services`."""
        out: list[float] = []
        for rtype, count in self.mix:
            out.extend([rtype.usd_per_hour] * count)
        return out

    def describe(self) -> str:
        """Compact human-readable mix, e.g. ``2×mi250x-gcd + 1×budget``."""
        return " + ".join(f"{count}x{rtype.name}" for rtype, count in self.mix)


def plan_capacity(
    types: list[ReplicaType] | tuple,
    peak_rate_ips: float,
    *,
    batch_size: int = 8,
    utilization_target: float = 0.7,
    slo_s: float = 0.25,
    attainment_target: float = 0.95,
    max_replicas: int = 64,
) -> CapacityPlan:
    """Solve for the cheapest replica mix meeting the SLO headroom.

    Exact bounded enumeration with cost pruning; raises when even
    ``max_replicas`` of every type cannot carry the forecast.
    """
    if not types:
        raise ValueError("planner needs at least one replica type")
    if peak_rate_ips <= 0:
        raise ValueError(f"peak_rate_ips must be positive, got {peak_rate_ips}")
    if not 0 < utilization_target <= 1:
        raise ValueError(
            f"utilization_target must be in (0, 1], got {utilization_target}"
        )
    if max_replicas < 1:
        raise ValueError(f"max_replicas must be >= 1, got {max_replicas}")
    required = peak_rate_ips / utilization_target
    caps = [t.capacity_ips(batch_size) for t in types]
    if max(caps) * max_replicas < required:
        raise ValueError(
            f"forecast {peak_rate_ips:.1f} img/s needs more than "
            f"{max_replicas} replicas of every offered type"
        )

    best: tuple[float, int, tuple] | None = None  # (cost, total, counts)

    def search(i: int, counts: tuple, cost: float, total: int, cap: float) -> None:
        nonlocal best
        if best is not None and (
            cost > best[0] or (cost == best[0] and total > best[1])
        ):
            return
        if cap >= required:
            key = (cost, total, counts)
            if best is None or key < best:
                best = key
            return
        if i == len(types):
            return
        # Upper bound on how many of type i could ever help: enough to
        # cover the missing capacity alone, within the fleet bound.
        missing = required - cap
        hi = min(max_replicas - total, int(missing // caps[i]) + 1)
        for n in range(hi, -1, -1):
            search(
                i + 1,
                counts + (n,),
                cost + n * types[i].usd_per_hour,
                total + n,
                cap + n * caps[i],
            )

    search(0, (), 0.0, 0, 0.0)
    if best is None:
        raise ValueError(
            f"no mix of <= {max_replicas} replicas reaches "
            f"{required:.1f} img/s capacity"
        )
    counts = best[2]
    mix = tuple(
        (t, n) for t, n in zip(types, counts + (0,) * (len(types) - len(counts))) if n
    )
    capacity = sum(t.capacity_ips(batch_size) * n for t, n in mix)
    cost = sum(t.usd_per_hour * n for t, n in mix)
    return CapacityPlan(
        mix=mix,
        peak_rate_ips=peak_rate_ips,
        batch_size=batch_size,
        utilization_target=utilization_target,
        slo_s=slo_s,
        attainment_target=attainment_target,
        predicted_capacity_ips=capacity,
        predicted_cost_per_hour=cost,
    )


def reconcile_plan(
    plan: CapacityPlan,
    result: OpenLoopResult,
    cost_tolerance: float = 0.10,
) -> Reconciliation:
    """Settle the plan against a measured open-loop run on the planned fleet.

    Gates: measured attainment ≥ the plan's target, measured cost/hour
    within ``cost_tolerance`` (relative, applied as printed in the gate:
    two decimals) of predicted, and measured offered load within the
    planned capacity (utilization ≤ 1).

    Attainment is scored over *admitted* requests
    (:attr:`OpenLoopResult.admitted_attainment`): the plan is sized for
    the peak that survives the token buckets, so traffic the admission
    policy turns away at the door is not the fleet's to serve.
    """
    if cost_tolerance < 0:
        raise ValueError(f"cost_tolerance must be >= 0, got {cost_tolerance}")
    measured_util = (
        result.served_rate_ips / plan.predicted_capacity_ips
        if plan.predicted_capacity_ips > 0
        else 0.0
    )
    return reconcile(
        (
            ("slo_attainment", plan.attainment_target, result.admitted_attainment, ">="),
            (
                "cost_per_hour_usd",
                plan.predicted_cost_per_hour,
                result.measured_cost_per_hour,
                f"rel<={cost_tolerance:.2f}",
            ),
            ("utilization", plan.utilization_target, measured_util, "<=1"),
        )
    )
