"""Occupancy-driven GPU power / utilization / memory trace model.

Reproduces the paper's Fig. 4 bottom-left panel (rocm-smi traces for the
ViT-5B runs): per-GPU power, memory, and utilization sampled over time for
a given sharding strategy. The model maps the simulator's per-step
compute/communication occupancies to rocm-smi-like observables:

- *utilization* reports near 100% whenever kernels are resident (the
  paper notes ~100% for all strategies on synthetic data) — rocm-smi
  utilization counts "any kernel active", not FLOP efficiency;
- *power* scales with true arithmetic occupancy alone (exposed
  communication draws idle power), so strategies that spend more wall
  time computing per byte moved draw more power, matching the paper's
  SHARD_GRAD_OP > FULL_SHARD ordering and HYBRID_2GPUs having the
  smallest footprint (fewest communication calls, shortest step);
- *memory* is the strategy's resident footprint from the memory model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PowerModel", "PowerTrace"]


@dataclass(frozen=True)
class PowerTrace:
    """Sampled per-GPU trace of one training phase."""

    times_s: np.ndarray
    power_w: np.ndarray
    utilization_pct: np.ndarray
    memory_bytes: np.ndarray
    label: str = ""

    @property
    def mean_power(self) -> float:
        """Mean sampled power (W)."""
        return float(self.power_w.mean())

    @property
    def mean_utilization(self) -> float:
        """Mean sampled utilization (%)."""
        return float(self.utilization_pct.mean())

    def emit(self, telemetry, prefix: str = "hw") -> int:
        """Publish the trace as ``<prefix>.power_w`` / ``.utilization_pct``
        / ``.memory_bytes`` gauges on a telemetry bus (one triple per
        sample, the trace label attached), mirroring how a rocm-smi
        poller would feed a monitoring pipeline. Returns the number of
        gauge events emitted (0 when the bus is disabled)."""
        if not telemetry.enabled:
            return 0
        n = 0
        for i in range(len(self.times_s)):
            t = float(self.times_s[i])
            telemetry.gauge(
                f"{prefix}.power_w", float(self.power_w[i]), t=t, label=self.label
            )
            telemetry.gauge(
                f"{prefix}.utilization_pct",
                float(self.utilization_pct[i]),
                t=t,
                label=self.label,
            )
            telemetry.gauge(
                f"{prefix}.memory_bytes",
                float(self.memory_bytes[i]),
                t=t,
                label=self.label,
            )
            n += 3
        return n


def _check_occupancy(name: str, v: float) -> None:
    if not 0.0 <= v <= 1.0 + 1e-9:
        raise ValueError(f"{name} occupancy must be in [0, 1], got {v}")


@dataclass(frozen=True)
class PowerModel:
    """Maps occupancies to rocm-smi-style observables for one GCD.

    Attributes
    ----------
    idle_power_w:
        Power with no kernels resident.
    max_power_w:
        Package power at full matrix-core occupancy (MI250X is 500 W per
        package; we report per GCD).
    """

    idle_power_w: float = 90.0
    max_power_w: float = 280.0

    def power(self, compute_occupancy: float) -> float:
        """Average power for one step with compute occupancy in [0, 1]."""
        _check_occupancy("compute", compute_occupancy)
        dynamic = self.max_power_w - self.idle_power_w
        return self.idle_power_w + dynamic * compute_occupancy

    def utilization(self, compute_occupancy: float, comm_occupancy: float) -> float:
        """rocm-smi 'GPU use' percentage: any-kernel-resident time share."""
        _check_occupancy("compute", compute_occupancy)
        _check_occupancy("comm", comm_occupancy)
        busy = min(1.0, compute_occupancy + max(0.0, comm_occupancy - compute_occupancy))
        return 100.0 * busy

    def trace(
        self,
        step_time_s: float,
        compute_occupancy: float,
        comm_occupancy: float,
        memory_bytes: float,
        n_steps: int = 50,
        samples_per_step: int = 4,
        label: str = "",
        jitter_seed: int = 0,
    ) -> PowerTrace:
        """Synthesize a sampled trace over ``n_steps`` identical steps.

        A small deterministic jitter makes the trace visually comparable
        to rocm-smi sampling noise without affecting means.
        """
        if step_time_s <= 0:
            raise ValueError(f"step_time_s must be positive, got {step_time_s}")
        n = n_steps * samples_per_step
        rng = np.random.Generator(np.random.PCG64(jitter_seed))
        t = np.arange(n) * (step_time_s / samples_per_step)
        p = self.power(compute_occupancy)
        u = self.utilization(compute_occupancy, comm_occupancy)
        power = p * (1.0 + 0.02 * rng.standard_normal(n))
        util = np.clip(u * (1.0 + 0.005 * rng.standard_normal(n)), 0.0, 100.0)
        mem = np.full(n, float(memory_bytes))
        return PowerTrace(
            times_s=t,
            power_w=power,
            utilization_pct=util,
            memory_bytes=mem,
            label=label,
        )
