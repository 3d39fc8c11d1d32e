"""Open-loop serving experiment: plan, serve, reconcile, extrapolate.

Three parts, one discipline (the same one as
:mod:`repro.experiments.mesh_crossover`):

1. *Planned fleet, measured run* — a multi-tenant diurnal+flash
   workload is forecast, :func:`repro.serve.plan_capacity` prices a
   heterogeneous fleet for its peak, the planned fleet serves the
   seeded open-loop traffic on the virtual clock, and
   :func:`repro.serve.reconcile_plan` compares predicted attainment /
   cost / utilization against the measured run.
2. *Autoscaled run* — the same workload served by an SLO-driven
   :class:`~repro.serve.Autoscaler` instead of a fixed fleet: the
   fleet grows through the flash crowd and drains after, and the run
   reports measured spend next to the static plan's.
3. *Million-user extrapolation* — once the planner is reconciled at
   proxy scale, it prices fleets for virtual-user populations far past
   what the test machine can materialize (planning is closed-form; no
   events are generated).
"""

from __future__ import annotations

from repro.experiments.report import render_table
from repro.serve import (
    AdmissionController,
    Autoscaler,
    AutoscalePolicy,
    CapacityPlan,
    FixedServiceModel,
    InferenceServer,
    OpenLoopResult,
    RateProfile,
    ReplicaType,
    SyntheticEncoder,
    TenantSpec,
    TenantTraffic,
    VirtualClock,
    plan_capacity,
    reconcile_plan,
    run_open_loop,
)
from repro.telemetry.report import Reconciliation

__all__ = [
    "HORIZON_S",
    "SEED",
    "SLO_S",
    "proxy_fleet",
    "tenant_traffics",
    "run_traffic_plan",
    "run_traffic_autoscale",
    "run_user_extrapolation",
    "run_traffic",
    "render_traffic",
    "claims_traffic",
]

HORIZON_S = 8.0
SEED = 17
SLO_S = 0.25
BATCH = 8

#: Virtual-user populations priced in the extrapolation sweep. A user
#: issues ``USER_RATE_IPS`` requests/s on average; populations are never
#: materialized — only their aggregate rate is planned for.
USER_GRID = [5_000_000, 40_000_000, 160_000_000, 640_000_000]
USER_RATE_IPS = 2e-3


def proxy_fleet() -> list[ReplicaType]:
    """Two priced replica types with a real cost/throughput trade.

    The fast part is cheaper *per image* (0.005 vs 0.0067 $/h per
    img/s) but over-provisions small loads — the same shape of decision
    the priced MI250X fleet poses at catalog scale.
    """
    return [
        ReplicaType("fast", FixedServiceModel(400.0), 2.0),
        ReplicaType("slow", FixedServiceModel(150.0), 1.0),
    ]


def tenant_traffics() -> list[TenantTraffic]:
    """Three tenants: diurnal production, flash-crowd free tier, batch."""
    return [
        TenantTraffic(
            TenantSpec("prod", weight=4.0, priority=0),
            RateProfile(
                base_rate_ips=90.0, diurnal_amplitude=0.3, diurnal_period_s=HORIZON_S
            ),
            deadline_s=1.0,
            image_shape=(1, 2, 2),
        ),
        TenantTraffic(
            TenantSpec("free", weight=1.0, priority=0, rate_limit=60.0),
            RateProfile(
                base_rate_ips=30.0,
                flash_at_s=3.0,
                flash_magnitude=5.0,
                flash_ramp_s=0.5,
                flash_hold_s=1.5,
            ),
            deadline_s=1.0,
            image_shape=(1, 2, 2),
        ),
        TenantTraffic(
            TenantSpec("batch", weight=1.0, priority=1),
            RateProfile(base_rate_ips=25.0),
            process="pareto",
            image_shape=(1, 2, 2),
        ),
    ]


def _forecast_peak(traffics: list[TenantTraffic]) -> float:
    """Admitted peak: the free tier's flash is clipped by its bucket."""
    peak = 0.0
    for t in traffics:
        rate = t.profile.max_rate()
        if t.spec.rate_limit is not None:
            rate = min(rate, t.spec.rate_limit)
        peak += rate
    return peak


def _server(services, prices, traffics, autoscaler=None) -> InferenceServer:
    return InferenceServer(
        SyntheticEncoder(),
        services=services,
        replica_prices=prices,
        max_batch_size=BATCH,
        queue_capacity=1024,
        clock=VirtualClock(),
        admission=AdmissionController([t.spec for t in traffics], capacity=1024),
        autoscaler=autoscaler,
    )


def run_traffic_plan() -> tuple[CapacityPlan, OpenLoopResult, Reconciliation]:
    """Plan a fleet for the forecast peak, serve, and reconcile."""
    traffics = tenant_traffics()
    plan = plan_capacity(
        proxy_fleet(),
        peak_rate_ips=_forecast_peak(traffics),
        batch_size=BATCH,
        slo_s=SLO_S,
    )
    server = _server(plan.services(), plan.prices(), traffics)
    result = run_open_loop(
        server, traffics, horizon_s=HORIZON_S, seed=SEED, slo_s=plan.slo_s
    )
    return plan, result, reconcile_plan(plan, result)


def run_traffic_autoscale() -> tuple[OpenLoopResult, Autoscaler]:
    """Serve the same workload with an elastic fleet instead of a plan."""
    traffics = tenant_traffics()
    autoscaler = Autoscaler(
        AutoscalePolicy(
            min_replicas=1,
            max_replicas=6,
            interval_s=0.25,
            slo_s=SLO_S,
            high_backlog=6.0,
            warmup_s=0.25,
        ),
        lambda: FixedServiceModel(150.0),
        usd_per_hour=1.0,
    )
    server = _server(
        [FixedServiceModel(150.0)], [1.0], traffics, autoscaler=autoscaler
    )
    result = run_open_loop(
        server, traffics, horizon_s=HORIZON_S, seed=SEED, slo_s=SLO_S
    )
    return result, autoscaler


def run_user_extrapolation() -> list[tuple[int, float, CapacityPlan]]:
    """Price MI250X-catalog fleets for million-user populations.

    Closed-form only: ``plan_capacity`` never materializes a single
    request, so the sweep reaches populations whose event streams would
    never fit in memory.
    """
    from repro.core.config import get_vit_config

    types = ReplicaType.catalog(get_vit_config("proxy-base"))
    rows = []
    for users in USER_GRID:
        profile = RateProfile(
            virtual_users=users,
            rate_per_user_ips=USER_RATE_IPS,
            diurnal_amplitude=0.4,
        )
        plan = plan_capacity(
            types,
            peak_rate_ips=profile.max_rate(),
            batch_size=64,
            slo_s=SLO_S,
            max_replicas=512,
        )
        rows.append((users, profile.max_rate(), plan))
    return rows


# -- rendering -------------------------------------------------------------


def _render_plan(
    plan: CapacityPlan, result: OpenLoopResult, recon: Reconciliation
) -> str:
    per_tenant = render_table(
        ["tenant", "attainment"],
        [
            [name, round(att, 4)]
            for name, att in sorted(result.attainment_by_tenant.items())
        ],
        title="Per-tenant SLO attainment (planned fleet)",
        precision=4,
    )
    summary = render_table(
        ["fleet", "offered", "served", "rejected", "timeout",
         "attainment", "admitted", "$/h pred", "$/h meas"],
        [[
            plan.describe(),
            result.offered,
            result.served,
            result.rejected,
            result.timed_out,
            round(result.attainment, 4),
            round(result.admitted_attainment, 4),
            round(plan.predicted_cost_per_hour, 3),
            round(result.measured_cost_per_hour, 3),
        ]],
        title=(
            f"Planned fleet over {HORIZON_S:.0f}s of diurnal+flash traffic "
            f"(seed {SEED}, SLO {SLO_S * 1e3:.0f} ms)"
        ),
        precision=4,
    )
    return summary + "\n\n" + per_tenant + "\n\n" + recon.render()


def _render_autoscale(result: OpenLoopResult, autoscaler: Autoscaler) -> str:
    summary = render_table(
        ["replicas mean", "replicas max", "scale events", "attainment",
         "$ measured"],
        [[
            round(result.mean_replicas, 2),
            result.max_replicas,
            result.scale_events,
            round(result.attainment, 4),
            round(result.measured_cost_usd, 4),
        ]],
        title="Autoscaled fleet over the same workload",
        precision=4,
    )
    timeline = render_table(
        ["t [s]", "action", "fleet", "backlog", "p99 [ms]"],
        [
            [round(e.t_s, 2), e.action, e.n_replicas, round(e.backlog, 1),
             round(e.p99_s * 1e3, 1)]
            for e in autoscaler.events
        ],
        title="Scale decisions",
        precision=2,
    )
    return summary + "\n\n" + timeline


def _render_extrapolation(rows) -> str:
    return render_table(
        ["virtual users", "peak img/s", "fleet", "replicas", "$/h",
         "utilization"],
        [
            [
                f"{users:,}",
                round(peak, 1),
                plan.describe(),
                plan.n_replicas,
                round(plan.predicted_cost_per_hour, 2),
                round(plan.predicted_utilization, 3),
            ]
            for users, peak, plan in rows
        ],
        title=(
            "Planned MI250X-catalog fleets for virtual-user populations "
            f"({USER_RATE_IPS:g} img/s per user; closed-form, no events "
            "materialized)"
        ),
        precision=3,
    )


Traffic = tuple[tuple[CapacityPlan, OpenLoopResult, Reconciliation],
                tuple[OpenLoopResult, Autoscaler], list[tuple[int, float, CapacityPlan]]]


def run_traffic() -> Traffic:
    """All three parts: the planned run, the autoscaled run, the user sweep."""
    return run_traffic_plan(), run_traffic_autoscale(), run_user_extrapolation()


def render_traffic(result: Traffic) -> str:
    """Planned-vs-measured serving report plus the million-user sweep."""
    planned, autoscaled, extrapolation = result
    return (
        _render_plan(*planned)
        + "\n\n"
        + _render_autoscale(*autoscaled)
        + "\n\n"
        + _render_extrapolation(extrapolation)
    )


def claims_traffic(result: Traffic) -> list[tuple[str, bool]]:
    """The planned fleet's predictions hold when it serves the traffic."""
    (_, _, recon), _, _ = result
    return [
        ("the capacity plan reconciles with serving the forecast traffic "
         "(every reconcile_plan row passes its gate)", recon.reconciled),
    ]
