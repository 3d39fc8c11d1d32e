"""SLO-driven autoscaling of the serving replica fleet.

The paper's scaling study sizes a *training* fleet offline; a serving
fleet has to size itself online, because open-loop traffic (diurnal
cycles, flash crowds) does not wait for capacity. This module adds that
control loop: a deterministic state machine that watches the same
telemetry the operator would — queue depth per replica and the windowed
p99 latency — and grows or shrinks the
:class:`~repro.serve.replica.ReplicaPool` between event-loop steps.

**State machine.** The autoscaler evaluates every ``interval_s`` of
virtual time. At each tick it computes

- ``backlog`` — queued requests per active replica, and
- ``p99_s`` — the 99th percentile latency over the last ``window``
  served or timed-out responses (timeouts count as their full
  time-to-verdict, so a timing-out system reads as slow, not fast;
  instant door rejections are excluded — they would read as fast);

then moves through three states:

- **steady** — both signals inside their bands; no action.
- **scale-up** — ``backlog > high_backlog`` *or* ``p99_s > slo_s``:
  add ``step`` replicas (clamped to ``max_replicas``). New replicas
  are busy for ``warmup_s`` before their first batch (model load /
  container start analogue). Another scale-up is suppressed for
  ``up_cooldown_s`` (hysteresis against thrashing on a single burst).
- **scale-down** — ``backlog < low_backlog`` *and* ``p99_s`` under
  ``slo_s * down_slo_fraction``: retire one replica (drain, never
  interrupt an in-flight batch), clamped to ``min_replicas``,
  suppressed for ``down_cooldown_s`` after any scale action — scaling
  down is deliberately slower than scaling up, the standard
  production asymmetry.

Every decision is a pure function of (virtual time, telemetry history,
policy), so a seeded open-loop scenario replays its exact scale
timeline — asserted by the property campaign.

Telemetry: gauges ``serve.replicas`` / ``serve.desired_replicas`` /
``serve.autoscale_backlog`` / ``serve.autoscale_p99_ms`` on every tick,
counters ``serve.scale_up`` / ``serve.scale_down`` on transitions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = ["AutoscalePolicy", "ScaleEvent", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """Tunable bands and bounds of the autoscaler state machine.

    ``slo_s`` is the latency objective the fleet is sized against;
    ``high_backlog``/``low_backlog`` are queued-requests-per-replica
    thresholds. Cooldowns and ``warmup_s`` are virtual seconds.
    """

    min_replicas: int = 1
    max_replicas: int = 8
    interval_s: float = 0.5
    slo_s: float = 0.2
    high_backlog: float = 8.0
    low_backlog: float = 1.0
    down_slo_fraction: float = 0.5
    step: int = 1
    up_cooldown_s: float = 1.0
    down_cooldown_s: float = 2.0
    warmup_s: float = 0.5
    window: int = 64

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError(f"min_replicas must be >= 1, got {self.min_replicas}")
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas {self.max_replicas} < min_replicas {self.min_replicas}"
            )
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {self.interval_s}")
        if self.slo_s <= 0:
            raise ValueError(f"slo_s must be positive, got {self.slo_s}")
        if self.low_backlog >= self.high_backlog:
            raise ValueError(
                f"low_backlog {self.low_backlog} must be < high_backlog "
                f"{self.high_backlog}"
            )
        if not 0 < self.down_slo_fraction <= 1:
            raise ValueError(
                f"down_slo_fraction must be in (0, 1], got {self.down_slo_fraction}"
            )
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.up_cooldown_s < 0 or self.down_cooldown_s < 0:
            raise ValueError("cooldowns must be non-negative")
        if self.warmup_s < 0:
            raise ValueError(f"warmup_s must be non-negative, got {self.warmup_s}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler action, for replayable scale timelines."""

    t_s: float
    action: str  # "up" | "down"
    n_replicas: int  # active replicas *after* the action
    backlog: float
    p99_s: float


class Autoscaler:
    """The control loop: policy + service factory + decision history.

    Parameters
    ----------
    policy:
        The :class:`AutoscalePolicy` bands/bounds.
    service_factory:
        Zero-arg callable returning the service model for each newly
        added replica (heterogeneous fleets pass a cycling factory).
    usd_per_hour:
        Price stamped on replicas this autoscaler adds (cost ledger).
    """

    def __init__(self, policy: AutoscalePolicy, service_factory, usd_per_hour: float = 0.0):
        self.policy = policy
        self.service_factory = service_factory
        self.usd_per_hour = usd_per_hour
        self.events: list[ScaleEvent] = []
        self._latencies: deque[float] = deque(maxlen=policy.window)
        self._next_eval_s = policy.interval_s
        self._last_up_s = float("-inf")
        self._last_action_s = float("-inf")

    def observe(self, latency_s: float) -> None:
        """Feed one terminal response latency into the p99 window."""
        self._latencies.append(latency_s)

    def next_eval_s(self) -> float:
        """Virtual time of the next scheduled evaluation tick."""
        return self._next_eval_s

    def window_p99_s(self) -> float:
        """p99 latency over the observation window (0 when empty).

        ``method="higher"`` keeps the statistic an observed latency
        (same rationale as :func:`repro.serve.ledger.latency_stats`).
        """
        if not self._latencies:
            return 0.0
        return float(
            np.percentile(np.array(self._latencies), 99, method="higher")
        )

    def tick(self, now_s: float, queue_depth: int, pool, telemetry) -> bool:
        """Run one evaluation if due; returns True when a tick fired.

        Mutates ``pool`` (add / begin_retire / reap) and publishes the
        autoscale gauges on ``telemetry``.
        """
        if now_s < self._next_eval_s:
            return False
        # One tick per interval, anchored to the policy grid so the
        # timeline is a pure function of the policy (never of how far
        # the event loop overshot the tick instant).
        p = self.policy
        while self._next_eval_s <= now_s:
            self._next_eval_s += p.interval_s
        pool.reap(now_s)
        n_active = pool.n_active
        backlog = queue_depth / max(1, n_active)
        p99_s = self.window_p99_s()
        desired = n_active

        if (backlog > p.high_backlog or p99_s > p.slo_s) and (
            now_s - self._last_up_s >= p.up_cooldown_s
        ):
            desired = min(p.max_replicas, n_active + p.step)
            for _ in range(desired - n_active):
                pool.add_replica(
                    self.service_factory(),
                    now_s,
                    warmup_s=p.warmup_s,
                    usd_per_hour=self.usd_per_hour,
                )
            if desired > n_active:
                self._last_up_s = now_s
                self._last_action_s = now_s
                telemetry.counter("serve.scale_up", desired - n_active)
                self.events.append(
                    ScaleEvent(now_s, "up", desired, backlog, p99_s)
                )
        elif (
            backlog < p.low_backlog
            and p99_s <= p.slo_s * p.down_slo_fraction
            and n_active > p.min_replicas
            and now_s - self._last_action_s >= p.down_cooldown_s
        ):
            if pool.begin_retire(now_s) is not None:
                desired = n_active - 1
                self._last_action_s = now_s
                telemetry.counter("serve.scale_down", 1)
                self.events.append(
                    ScaleEvent(now_s, "down", desired, backlog, p99_s)
                )
        pool.reap(now_s)
        telemetry.gauge("serve.replicas", pool.n_active)
        telemetry.gauge("serve.desired_replicas", desired)
        telemetry.gauge("serve.autoscale_backlog", backlog)
        telemetry.gauge("serve.autoscale_p99_ms", p99_s * 1e3)
        return True
