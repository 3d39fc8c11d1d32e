"""Seeded open-loop synthetic traffic: the load side of the serving story.

The ROADMAP's north star is a service carrying "heavy traffic from
millions of users". Users at that scale are never simulated one by one
— what reaches the fleet is an *aggregate arrival process*, so that is
what this module generates: seeded, open-loop (arrivals never wait for
completions) request streams on the existing
:class:`~repro.serve.clock.VirtualClock`, scaling to millions of
virtual users in O(1) memory because only the aggregate rate — not the
user population — is materialized.

Three composable ingredients per tenant:

- **inter-arrival process** — ``"poisson"`` (memoryless, the classic
  open-loop model) or ``"pareto"`` (heavy-tailed: bursts and long gaps,
  the self-similar traffic shape measured on real request logs).
  Non-homogeneous rates use Lewis thinning for Poisson and local rate
  scaling for Pareto, both exact under a fixed seed.
- **rate profile** — ``rate_at(t)`` composes a base rate (optionally
  ``virtual_users × rate_per_user``), a sinusoidal *diurnal* cycle, and
  a *flash crowd* (linear ramp to ``flash_magnitude×``, hold, ramp
  down) — the three regimes an autoscaler must survive.
- **request mix** — each tenant draws from its own image pool of
  ``working_set`` distinct images (Zipf-like popularity via uniform
  draws over a small pool), so cache behaviour is tenant-dependent, and
  stamps its deadline/priority on every request.

:func:`generate_workload` merges the per-tenant streams into one
time-ordered event list with a deterministic tie-break, and
:func:`run_open_loop` drives an :class:`~repro.serve.server.InferenceServer`
with it, returning the :class:`OpenLoopResult` ledger (per-tenant
verdicts, SLO attainment, measured fleet cost) that the capacity
planner reconciles against.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.serve.admission import TenantSpec
from repro.serve.queue import Response

__all__ = [
    "ARRIVAL_PROCESSES",
    "RateProfile",
    "TenantTraffic",
    "TrafficEvent",
    "SyntheticEncoder",
    "generate_workload",
    "slo_attainment",
    "OpenLoopResult",
    "run_open_loop",
]

#: Supported inter-arrival processes.
ARRIVAL_PROCESSES = ("poisson", "pareto")


@dataclass(frozen=True)
class RateProfile:
    """Time-varying offered rate (requests per virtual second).

    ``rate_at(t) = base · diurnal(t) · flash(t)`` with

    - ``diurnal(t) = 1 + diurnal_amplitude · sin(2πt / diurnal_period_s)``
    - ``flash(t)``: 1 outside the flash window; ramps linearly to
      ``flash_magnitude`` over ``flash_ramp_s`` starting at
      ``flash_at_s``, holds for ``flash_hold_s``, ramps back down.

    ``base_rate_ips`` may be given directly or as
    ``virtual_users × rate_per_user`` — a million light users is just a
    number here, which is exactly the point.
    """

    base_rate_ips: float = 0.0
    virtual_users: int = 0
    rate_per_user_ips: float = 0.0
    diurnal_amplitude: float = 0.0
    diurnal_period_s: float = 86_400.0
    flash_at_s: float | None = None
    flash_magnitude: float = 1.0
    flash_ramp_s: float = 1.0
    flash_hold_s: float = 0.0

    def __post_init__(self) -> None:
        if self.base_rate_ips < 0:
            raise ValueError(f"base_rate_ips must be >= 0, got {self.base_rate_ips}")
        if self.virtual_users < 0 or self.rate_per_user_ips < 0:
            raise ValueError("virtual_users and rate_per_user_ips must be >= 0")
        if self.base_rate() <= 0:
            raise ValueError(
                "profile needs a positive rate: set base_rate_ips or "
                "virtual_users × rate_per_user_ips"
            )
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude}"
            )
        if self.diurnal_period_s <= 0:
            raise ValueError(
                f"diurnal_period_s must be positive, got {self.diurnal_period_s}"
            )
        if self.flash_magnitude < 1.0:
            raise ValueError(
                f"flash_magnitude must be >= 1, got {self.flash_magnitude}"
            )
        if self.flash_ramp_s <= 0 or self.flash_hold_s < 0:
            raise ValueError("flash_ramp_s must be > 0 and flash_hold_s >= 0")

    def base_rate(self) -> float:
        """The un-modulated aggregate rate (requests/s)."""
        return self.base_rate_ips + self.virtual_users * self.rate_per_user_ips

    def _flash_factor(self, t_s: float) -> float:
        if self.flash_at_s is None or t_s < self.flash_at_s:
            return 1.0
        dt = t_s - self.flash_at_s
        up, hold = self.flash_ramp_s, self.flash_hold_s
        if dt < up:  # ramping up
            return 1.0 + (self.flash_magnitude - 1.0) * dt / up
        if dt < up + hold:  # holding
            return self.flash_magnitude
        if dt < up + hold + up:  # ramping down
            return self.flash_magnitude - (self.flash_magnitude - 1.0) * (
                dt - up - hold
            ) / up
        return 1.0

    def rate_at(self, t_s: float) -> float:
        """Instantaneous offered rate at virtual time ``t_s``."""
        return self._rate_fn()(t_s)

    def _rate_fn(self):
        """:meth:`rate_at` with the constant factors read once (the same
        operations in the same order, so the same bits)."""
        base, amp, flash = self.base_rate(), self.diurnal_amplitude, self._flash_factor
        two_pi, period, sin = 2.0 * math.pi, self.diurnal_period_s, math.sin
        return lambda t: base * (1.0 + amp * sin(two_pi * t / period)) * flash(t)

    def max_rate(self) -> float:
        """Tight upper bound on ``rate_at`` (the thinning majorant, and
        the peak the capacity planner provisions for)."""
        return (
            self.base_rate()
            * (1.0 + self.diurnal_amplitude)
            * (self.flash_magnitude if self.flash_at_s is not None else 1.0)
        )

    def mean_rate(self, horizon_s: float, samples: int = 512) -> float:
        """Mean offered rate over ``[0, horizon_s]`` (trapezoidal)."""
        ts = np.linspace(0.0, horizon_s, samples)
        rates = np.array([self.rate_at(float(t)) for t in ts])
        return float(np.trapezoid(rates, ts) / horizon_s)


@dataclass(frozen=True)
class TenantTraffic:
    """One tenant's open-loop stream: who, how fast, and what they ask.

    ``deadline_s`` is a *relative* per-request deadline (None =
    best-effort); ``working_set`` is the number of distinct images the
    tenant's requests draw from (its cache locality); ``image_shape``
    is the per-request image shape (C, H, W).
    """

    spec: TenantSpec
    profile: RateProfile
    process: str = "poisson"
    pareto_alpha: float = 1.5
    deadline_s: float | None = None
    working_set: int = 8
    image_shape: tuple = (1, 4, 4)

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown process {self.process!r}; expected one of "
                f"{ARRIVAL_PROCESSES}"
            )
        if self.pareto_alpha <= 1.0:
            raise ValueError(
                f"pareto_alpha must be > 1 (finite mean), got {self.pareto_alpha}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.working_set < 1:
            raise ValueError(f"working_set must be >= 1, got {self.working_set}")
        if len(self.image_shape) != 3:
            raise ValueError(f"image_shape must be (C, H, W), got {self.image_shape}")


@dataclass(frozen=True, slots=True)
class TrafficEvent:
    """One generated arrival: when, who, what, and by-when."""

    t_s: float
    tenant: str
    image: np.ndarray = field(compare=False)
    deadline_s: float | None = None


class SyntheticEncoder:
    """Deterministic row-independent toy encoder for traffic studies.

    Open-loop scheduling experiments are about *time*, not features;
    this encoder keeps them fast while preserving the contract the
    serving numerics rely on (each output row is a pure function of its
    own image, so features are schedule-independent). Width-4 rows:
    sum / min / max / mean of the image.
    """

    width = 4

    def encode_features(self, images: np.ndarray) -> np.ndarray:
        """Per-row reductions of each image: shape ``(B, 4)``, in the
        dtype ``np.stack`` of the four would give. Sum and mean keep
        their own accumulators (``out=`` would sum integers in float64);
        min and max are exact in any dtype."""
        flat = images.reshape(images.shape[0], -1)
        out = np.empty((len(flat), 4), flat.dtype if flat.dtype.kind in "fc" else float)
        out[:, 0] = flat.sum(axis=1)
        flat.min(axis=1, out=out[:, 1])
        flat.max(axis=1, out=out[:, 2])
        out[:, 3] = flat.mean(axis=1)
        return out


def _tenant_arrivals(
    traffic: TenantTraffic, horizon_s: float, rng: np.random.Generator
) -> list[float]:
    """Arrival instants of one tenant over ``[0, horizon_s)``."""
    profile = traffic.profile
    rate_at = profile._rate_fn()
    out: list[float] = []
    t = 0.0
    if traffic.process == "poisson":
        # Lewis thinning against the analytic majorant: exact
        # non-homogeneous Poisson, deterministic under the rng.
        majorant = profile.max_rate()
        while True:
            t += rng.exponential(1.0 / majorant)
            if t >= horizon_s:
                break
            if rng.random() <= rate_at(t) / majorant:
                out.append(t)
    else:  # pareto
        # Heavy-tailed renewal process: each gap is Pareto with mean
        # 1/rate(t), so the local intensity tracks the profile while
        # the tail stays power-law (bursts + long silences).
        alpha = traffic.pareto_alpha
        mean_unit = alpha / (alpha - 1.0)  # mean of (1 + Lomax(alpha))
        while True:
            gap_unit = 1.0 + rng.pareto(alpha)
            rate = rate_at(t)
            t += gap_unit / (mean_unit * rate)
            if t >= horizon_s:
                break
            out.append(t)
    return out


def generate_workload(
    traffics: Iterable[TenantTraffic],
    horizon_s: float,
    seed: int,
    start_s: float = 0.0,
) -> list[TrafficEvent]:
    """Merge every tenant's seeded stream into one time-ordered workload.

    Each tenant draws from its own child generator of ``seed`` (streams
    are independent and per-tenant reproducible); the merge tie-breaks
    on (time, tenant position, sequence), so the full workload — images
    and deadlines included — is a pure function of (traffics, horizon,
    seed). ``start_s`` shifts all arrivals (e.g. onto a clock that has
    already advanced).
    """
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")
    # Read once: an iterator would be spent by the name check below
    # before any tenant was generated.
    traffics = list(traffics)
    names = [tr.spec.name for tr in traffics]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names in traffics: {names}")
    root = np.random.default_rng(seed)
    children = root.spawn(len(traffics))
    events: list[tuple[float, int, int, TrafficEvent]] = []
    for ti, (traffic, rng) in enumerate(zip(traffics, children)):
        shape = (traffic.working_set, *traffic.image_shape)
        # One small pool per tenant, split once into one row object per
        # working-set image; every event references one of those rows,
        # so a million-request workload holds working_set arrays, not a
        # million views.
        rows = list(rng.standard_normal(shape))
        arrivals = _tenant_arrivals(traffic, horizon_s, rng)
        # One draw for all picks: ``integers`` fills the array from the
        # stream per-event scalar calls read, so both give these values.
        picks = rng.integers(traffic.working_set, size=len(arrivals)).tolist()
        name, relative = traffic.spec.name, traffic.deadline_s
        for si, (t, pick) in enumerate(zip(arrivals, picks)):
            t_s = start_s + t
            deadline = None if relative is None else t_s + relative
            events.append((t_s, ti, si, TrafficEvent(t_s, name, rows[pick], deadline)))
    # (time, tenant position, sequence) is unique: no event is compared.
    events.sort()
    return [e[3] for e in events]


def slo_attainment(
    responses: list[Response], slo_s: float, tenant: str | None = None
) -> float:
    """Fraction of requests served ``ok`` within ``slo_s`` of arrival.

    Rejections and timeouts count against attainment (the user saw a
    failure); an empty response set attains vacuously (1.0).
    """
    if slo_s <= 0:
        raise ValueError(f"slo_s must be positive, got {slo_s}")
    pool = [r for r in responses if tenant is None or r.tenant == tenant]
    if not pool:
        return 1.0
    good = sum(1 for r in pool if r.status == "ok" and r.latency_s <= slo_s)
    return good / len(pool)


@dataclass(frozen=True)
class OpenLoopResult:
    """Ledger of one open-loop run (what the planner reconciles)."""

    responses: list[Response]
    horizon_s: float
    offered: int
    served: int
    rejected: int
    timed_out: int
    slo_s: float
    attainment: float
    attainment_by_tenant: dict
    measured_cost_usd: float
    mean_replicas: float
    max_replicas: int
    scale_events: int

    @property
    def admitted_attainment(self) -> float:
        """Attainment over requests the admission policy let through.

        Rate-limited door rejections are the token bucket doing its
        job, not the fleet failing; capacity reconciliation scores the
        fleet on the traffic it was actually sized for. Queue-full
        rejections and timeouts still count against it.
        """
        admitted = [r for r in self.responses if r.reason != "rate_limited"]
        return slo_attainment(admitted, self.slo_s)

    @property
    def measured_cost_per_hour(self) -> float:
        """Measured fleet spend normalized to one hour of virtual time."""
        if self.horizon_s <= 0:
            return 0.0
        return self.measured_cost_usd * 3600.0 / self.horizon_s

    @property
    def served_rate_ips(self) -> float:
        """Delivered throughput over the horizon (requests/s, virtual)."""
        return self.served / self.horizon_s if self.horizon_s > 0 else 0.0


def run_open_loop(
    server,
    traffics: Iterable[TenantTraffic],
    horizon_s: float,
    seed: int,
    slo_s: float,
) -> OpenLoopResult:
    """Generate a seeded workload, serve it to completion, and settle
    the books.

    ``server`` is an :class:`~repro.serve.server.InferenceServer`
    (optionally with admission and an autoscaler attached). The run is
    open-loop: arrivals are fixed up front and never react to the
    server. Returns the :class:`OpenLoopResult` ledger; the cost column
    reads the replica pool's priced active time at the drained clock.
    """
    traffics = list(traffics)  # read twice: by the generator and per tenant
    events = generate_workload(traffics, horizon_s, seed, start_s=server.clock.now())
    responses = server.run_traffic(events)
    end_s = max(server.clock.now(), horizon_s)
    by_tenant = {
        tr.spec.name: slo_attainment(responses, slo_s, tenant=tr.spec.name)
        for tr in traffics
    }
    # Verdict counts come from this run's responses, not the server's
    # cumulative ledger, so reusing a server across runs stays honest.
    verdicts = Counter(r.status for r in responses)
    autoscaler = getattr(server, "autoscaler", None)
    pool = server.pool
    # Mean fleet size over the horizon from priced-or-not active time.
    everyone = list(pool.replicas) + list(pool.retired)
    active_s = sum(r.active_seconds(end_s) for r in everyone)
    return OpenLoopResult(
        responses=responses,
        horizon_s=end_s,
        offered=len(events),
        served=verdicts["ok"],
        rejected=verdicts["rejected"],
        timed_out=verdicts["timeout"],
        slo_s=slo_s,
        attainment=slo_attainment(responses, slo_s),
        attainment_by_tenant=by_tenant,
        measured_cost_usd=pool.fleet_cost_usd(end_s),
        mean_replicas=active_s / end_s if end_s > 0 else 0.0,
        max_replicas=len(everyone),
        scale_events=len(autoscaler.events) if autoscaler is not None else 0,
    )
