"""Weak-scaling experiment driver (produces the paper's Figures 1-4 data).

Runs the performance simulator over a grid of node counts and strategies
for one model, collecting images/second (syn / syn-no-comm / IO / real /
ideal), per-GPU memory, communication share, and call counts — the exact
series the paper's weak-scaling plots show.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import MAEConfig, ViTConfig
from repro.core.sharding import parse_strategy
from repro.hardware.frontier import FRONTIER, FrontierSpec, frontier_machine
from repro.perf.io_model import IoModel
from repro.perf.memory_model import MemoryBreakdown
from repro.perf.simulator import PerfParams, StepBreakdown, TrainStepSimulator
from repro.telemetry import NULL_BUS, TelemetryBus

__all__ = [
    "ScalingPoint",
    "ScalingSeries",
    "publish_breakdown",
    "run_weak_scaling",
    "run_strong_scaling",
    "run_strategy_grid",
]


def publish_breakdown(
    telemetry: TelemetryBus, breakdown: StepBreakdown, **attrs
) -> None:
    """Publish one simulated step's performance quantities as ``perf.*``
    gauges (attrs identify the grid point: ``nodes=...``,
    ``strategy=...``).

    Downstream consumers recover the paper's derived numbers from the
    bus alone — e.g. communication share is
    ``sum(perf.exposed_comm_s) / sum(perf.step_time_s)`` over matching
    gauges (:func:`repro.telemetry.comm_share_from_events`), numerically
    identical to ``breakdown.comm_fraction``.
    """
    if not telemetry.enabled:
        return
    telemetry.gauge("perf.step_time_s", breakdown.step_time_s, **attrs)
    telemetry.gauge("perf.exposed_comm_s", breakdown.exposed_comm_seconds, **attrs)
    telemetry.gauge("perf.compute_s", breakdown.compute_seconds, **attrs)
    telemetry.gauge("perf.ips", breakdown.ips, **attrs)


@dataclass(frozen=True)
class ScalingPoint:
    """One (strategy, node-count) measurement."""

    n_nodes: int
    strategy: str
    breakdown: StepBreakdown

    @property
    def ips(self) -> float:
        """Images/second at this point."""
        return self.breakdown.ips

    @property
    def memory(self) -> MemoryBreakdown:
        """Per-GPU memory breakdown at this point."""
        return self.breakdown.memory


@dataclass
class ScalingSeries:
    """All node counts for one strategy, plus the ideal-scaling baseline."""

    strategy: str
    points: list[ScalingPoint] = field(default_factory=list)

    @property
    def node_counts(self) -> list[int]:
        """Node counts of the collected points."""
        return [p.n_nodes for p in self.points]

    @property
    def ips(self) -> list[float]:
        """Throughput per node count."""
        return [p.ips for p in self.points]

    def ideal_ips(self) -> list[float]:
        """Linear extrapolation from the smallest-node-count point."""
        if not self.points:
            return []
        base = self.points[0]
        return [base.ips * (p.n_nodes / base.n_nodes) for p in self.points]

    def efficiency(self) -> list[float]:
        """Measured / ideal, per point."""
        return [m / i for m, i in zip(self.ips, self.ideal_ips())]


def _make_simulator(
    model: ViTConfig | MAEConfig,
    n_nodes: int,
    strategy_label: str,
    params: PerfParams,
    io: IoModel | None,
    spec: FrontierSpec,
) -> TrainStepSimulator:
    strategy, shard_size = parse_strategy(strategy_label)
    machine = frontier_machine(n_nodes, spec=spec)
    return TrainStepSimulator(
        model,
        machine,
        strategy,
        shard_size=shard_size,
        params=params,
        io=io,
    )


def run_weak_scaling(
    model: ViTConfig | MAEConfig,
    strategy_label: str,
    node_counts: list[int],
    params: PerfParams | None = None,
    io: IoModel | None = None,
    spec: FrontierSpec = FRONTIER,
    telemetry: TelemetryBus | None = None,
) -> ScalingSeries:
    """One strategy across ``node_counts`` (paper-style labels accepted:
    ``"NO_SHARD"``, ``"DDP"``, ``"FULL_SHARD"``, ``"HYBRID_2GPUs"``...).

    With a ``telemetry`` bus attached, every grid point is published as
    ``perf.*`` gauges (see :func:`publish_breakdown`).
    """
    if not node_counts:
        raise ValueError("need at least one node count")
    if sorted(node_counts) != list(node_counts):
        raise ValueError("node_counts must be ascending (ideal uses the first)")
    params = params if params is not None else PerfParams()
    bus = telemetry if telemetry is not None else NULL_BUS
    series = ScalingSeries(strategy=strategy_label)
    for n in node_counts:
        sim = _make_simulator(model, n, strategy_label, params, io, spec)
        breakdown = sim.simulate()
        publish_breakdown(bus, breakdown, nodes=n, strategy=strategy_label)
        series.points.append(
            ScalingPoint(n_nodes=n, strategy=strategy_label, breakdown=breakdown)
        )
    return series


def run_strong_scaling(
    model: ViTConfig | MAEConfig,
    strategy_label: str,
    node_counts: list[int],
    global_batch: int,
    params: PerfParams | None = None,
    io: IoModel | None = None,
    spec: FrontierSpec = FRONTIER,
    telemetry: TelemetryBus | None = None,
) -> ScalingSeries:
    """Strong scaling: fixed *global* batch, shrinking local batch.

    An extension beyond the paper (which only weak-scales): how far can
    one fixed-size pretraining job spread before per-step communication
    and launch overheads eat the shrinking per-GPU compute?
    """
    if not node_counts:
        raise ValueError("need at least one node count")
    if sorted(node_counts) != list(node_counts):
        raise ValueError("node_counts must be ascending (ideal uses the first)")
    base = params if params is not None else PerfParams()
    bus = telemetry if telemetry is not None else NULL_BUS
    series = ScalingSeries(strategy=f"{strategy_label} (strong, gb={global_batch})")
    from dataclasses import replace as _replace

    for n in node_counts:
        world = frontier_machine(n, spec=spec).world()
        if global_batch % world.size != 0:
            raise ValueError(
                f"global batch {global_batch} not divisible by {world.size} ranks"
            )
        local = global_batch // world.size
        if local < 1:
            raise ValueError(
                f"global batch {global_batch} too small for {world.size} ranks"
            )
        point_params = _replace(base, local_batch=local)
        sim = _make_simulator(model, n, strategy_label, point_params, io, spec)
        breakdown = sim.simulate()
        publish_breakdown(bus, breakdown, nodes=n, strategy=series.strategy)
        series.points.append(
            ScalingPoint(n_nodes=n, strategy=series.strategy, breakdown=breakdown)
        )
    return series


def run_strategy_grid(
    model: ViTConfig | MAEConfig,
    strategy_labels: list[str],
    node_counts: list[int],
    params: PerfParams | None = None,
    io: IoModel | None = None,
    spec: FrontierSpec = FRONTIER,
    telemetry: TelemetryBus | None = None,
) -> dict[str, ScalingSeries]:
    """Several strategies over the same node grid (one Fig. 3/4 panel)."""
    return {
        label: run_weak_scaling(model, label, node_counts, params, io, spec, telemetry)
        for label in strategy_labels
    }
