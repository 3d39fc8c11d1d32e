"""Aggregation of telemetry event streams into run-level summaries, and
the one predicted-vs-measured reconciliation.

:class:`RunReport` folds a recorded event stream into exactly the
quantities the paper reports per run: throughput (images/second), the
communication share of a step, per-collective byte/retry totals, and
loss/LR trajectories. The experiment drivers (``experiments/fig1.py``,
``fig2.py``) compute their communication-share numbers from bus events
through :func:`comm_share_from_events` instead of ad-hoc accumulation.
:func:`reconcile` settles every predicted-vs-measured comparison (the
mesh perf model against measured traffic, a capacity plan against its
served run, a simulated step against an engine's) into one
:class:`Reconciliation`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from repro.telemetry.bus import TelemetryEvent, read_jsonl

__all__ = [
    "SpanAgg",
    "GaugeAgg",
    "RunReport",
    "gauge_series",
    "comm_share_from_events",
    "Check",
    "Reconciliation",
    "reconcile",
]


@dataclass
class SpanAgg:
    """Accumulated statistics of one span name.

    A span standing for a burst of collectives (a simulated step's tp
    gathers) carries ``calls=`` and counts as that many.
    """

    name: str
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    bytes: float = 0.0

    def add(self, event: TelemetryEvent) -> None:
        """Fold one span event in."""
        self.count += int(event.attrs.get("calls", 1))
        self.total_s += event.value
        self.max_s = max(self.max_s, event.value)
        self.bytes += float(event.attrs.get("bytes", 0.0))

    @property
    def mean_s(self) -> float:
        """Mean span duration in seconds."""
        return self.total_s / self.count if self.count else 0.0


@dataclass
class GaugeAgg:
    """Accumulated statistics of one gauge name."""

    name: str
    count: int = 0
    total: float = 0.0
    last: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def add(self, event: TelemetryEvent) -> None:
        """Fold one gauge reading in."""
        self.count += 1
        self.total += event.value
        self.last = event.value
        self.min = min(self.min, event.value)
        self.max = max(self.max, event.value)

    @property
    def mean(self) -> float:
        """Mean reading."""
        return self.total / self.count if self.count else 0.0


@dataclass
class RunReport:
    """Run-level aggregate of one telemetry event stream.

    Spans are grouped by name (durations and ``bytes`` attrs summed) —
    and, when tagged with a mesh ``axis`` attr, a second time by axis —
    counters are summed, gauges keep count/mean/last/min/max. The
    derived properties map one-to-one onto the paper's reported
    quantities — see DESIGN.md's observability section.
    """

    spans: dict[str, SpanAgg] = field(default_factory=dict)
    axis_spans: dict[str, SpanAgg] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    tenant_counters: dict[str, dict[str, float]] = field(default_factory=dict)
    gauges: dict[str, GaugeAgg] = field(default_factory=dict)
    n_events: int = 0

    @classmethod
    def from_events(cls, events: Iterable[TelemetryEvent]) -> "RunReport":
        """Aggregate an in-memory event stream."""
        report = cls()
        for e in events:
            report.n_events += 1
            if e.kind == "span":
                report.spans.setdefault(e.name, SpanAgg(e.name)).add(e)
                # Mesh engines tag collective spans with their mesh axis
                # (tp/pp/dp); fold a second grouping so the crossover
                # tables can report traffic per parallelism axis.
                axis = e.attrs.get("axis")
                if axis is not None:
                    report.axis_spans.setdefault(
                        str(axis), SpanAgg(str(axis))
                    ).add(e)
            elif e.kind == "counter":
                report.counters[e.name] = report.counters.get(e.name, 0.0) + e.value
                # The serving door tags multi-tenant counters with the
                # tenant name; fold a second grouping (the axis_spans
                # pattern) so per-tenant ledgers come from the bus.
                tenant = e.attrs.get("tenant")
                if tenant is not None:
                    bucket = report.tenant_counters.setdefault(str(tenant), {})
                    bucket[e.name] = bucket.get(e.name, 0.0) + e.value
            elif e.kind == "gauge":
                report.gauges.setdefault(e.name, GaugeAgg(e.name)).add(e)
            else:
                raise ValueError(f"unknown event kind {e.kind!r}")
        return report

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "RunReport":
        """Aggregate a JSONL stream written by ``JsonlSink``."""
        return cls.from_events(read_jsonl(path))

    # -- derived quantities (the paper's observables) ----------------------

    def span_seconds(self, prefix: str) -> float:
        """Total seconds across span names starting with ``prefix``."""
        return sum(a.total_s for n, a in self.spans.items() if n.startswith(prefix))

    def span_bytes(self, prefix: str = "comm.") -> float:
        """Total ``bytes`` attr across span names starting with ``prefix``."""
        return sum(a.bytes for n, a in self.spans.items() if n.startswith(prefix))

    def axis_bytes(self, axis: str) -> float:
        """Wire bytes moved on one mesh axis (``"tp"``/``"pp"``/``"dp"``)."""
        agg = self.axis_spans.get(axis)
        return agg.bytes if agg is not None else 0.0

    def axis_calls(self, axis: str) -> int:
        """Collective invocations tagged with one mesh axis."""
        agg = self.axis_spans.get(axis)
        return agg.count if agg is not None else 0

    def tenant_counter(self, tenant: str, name: str) -> float:
        """One tenant's share of counter ``name`` (0.0 when untagged).

        Per-tenant shares never exceed the aggregate:
        ``sum_t tenant_counter(t, n) <= counters[n]`` — anonymous
        (untagged) traffic accounts for the remainder.
        """
        return self.tenant_counters.get(tenant, {}).get(name, 0.0)

    def untagged_comm_bytes(self) -> float:
        """``comm.`` span bytes carrying no ``axis=`` tag.

        The global comm ledger decomposes exactly:
        ``span_bytes("comm.") == sum(axis_bytes(a)) + untagged_comm_bytes()``
        — the reconciliation tests pin that identity.
        """
        tagged = sum(a.bytes for a in self.axis_spans.values())
        return self.span_bytes("comm.") - tagged

    @property
    def comm_seconds(self) -> float:
        """Wall seconds spent inside collective spans."""
        return self.span_seconds("comm.")

    @property
    def compute_seconds(self) -> float:
        """Wall seconds spent inside forward/backward spans."""
        return self.span_seconds("compute.")

    @property
    def step_seconds(self) -> float:
        """Total wall seconds across recorded optimizer steps."""
        agg = self.gauges.get("step.wall_s")
        if agg is not None and agg.total > 0:
            return agg.total
        # Fallback when only engine spans were recorded.
        return self.comm_seconds + self.compute_seconds + self.span_seconds("optim.")

    @property
    def comm_share(self) -> float:
        """Communication share of the run (comm seconds / step seconds)."""
        denom = self.step_seconds
        return self.comm_seconds / denom if denom > 0 else 0.0

    @property
    def n_steps(self) -> int:
        """Number of optimizer steps with emitted ``StepStats``."""
        agg = self.gauges.get("step.loss")
        return agg.count if agg is not None else 0

    @property
    def images_per_sec(self) -> float:
        """Mean per-step throughput (images/second)."""
        agg = self.gauges.get("step.images_per_s")
        return agg.mean if agg is not None else 0.0

    @property
    def final_loss(self) -> float:
        """Loss at the last recorded step."""
        agg = self.gauges.get("step.loss")
        return agg.last if agg is not None else float("nan")

    def render(self) -> str:
        """Human-readable multi-line summary of the run."""
        lines = [
            f"steps: {self.n_steps}   images/s (mean): {self.images_per_sec:.1f}   "
            f"comm share: {100 * self.comm_share:.1f}%",
        ]
        if self.spans:
            lines.append(f"{'span':<24} {'calls':>6} {'total s':>10} {'mean us':>10}")
            for name in sorted(self.spans, key=lambda n: -self.spans[n].total_s):
                a = self.spans[name]
                lines.append(
                    f"{name:<24} {a.count:>6} {a.total_s:>10.4f} "
                    f"{1e6 * a.mean_s:>10.1f}"
                )
        if self.counters:
            lines.append("counters: " + ", ".join(
                f"{k}={v:g}" for k, v in sorted(self.counters.items())
            ))
        return "\n".join(lines)


def gauge_series(
    events: Iterable[TelemetryEvent], name: str, **attr_filter
) -> list[float]:
    """Readings of gauge ``name`` whose attrs match every filter kwarg."""
    out = []
    for e in events:
        if e.kind != "gauge" or e.name != name:
            continue
        if all(e.attrs.get(k) == v for k, v in attr_filter.items()):
            out.append(e.value)
    return out


def comm_share_from_events(events: Iterable[TelemetryEvent], **attr_filter) -> float:
    """Exposed-communication share from published ``perf.*`` gauges.

    The scaling drivers publish one ``perf.step_time_s`` and one
    ``perf.exposed_comm_s`` gauge per simulated point; this folds the
    matching readings into a share, so experiment scripts report the
    number the bus carries rather than re-deriving it locally.
    """
    events = list(events)
    step = sum(gauge_series(events, "perf.step_time_s", **attr_filter))
    comm = sum(gauge_series(events, "perf.exposed_comm_s", **attr_filter))
    return comm / step if step > 0 else 0.0


@dataclass(frozen=True)
class Check:
    """One predicted-vs-measured row: ``ok`` when ``measured`` passes
    ``gate`` against ``predicted``."""

    quantity: str
    predicted: float
    measured: float
    ok: bool
    gate: str


@dataclass(frozen=True)
class Reconciliation:
    """Predicted-vs-measured rows and the one flag a gate reads."""

    rows: tuple[Check, ...]

    @property
    def reconciled(self) -> bool:
        """Every row passes its gate."""
        return all(r.ok for r in self.rows)

    def to_json(self) -> dict:
        """JSON-ready form for a bench artifact."""
        return {"reconciled": self.reconciled, "rows": [asdict(r) for r in self.rows]}

    def render(self) -> str:
        """Aligned predicted-vs-measured table with the verdict."""
        lines = [
            f"{'quantity':<22} {'predicted':>12} {'measured':>12} {'gate':>12} ok"
        ]
        for r in self.rows:
            lines.append(
                f"{r.quantity:<22} {r.predicted:>12.4f} {r.measured:>12.4f} "
                f"{r.gate:>12} {'yes' if r.ok else 'NO'}"
            )
        lines.append(f"-> {'reconciled' if self.reconciled else 'DRIFTED'}")
        return "\n".join(lines)


def _passes(gate: str, predicted: float, measured: float) -> bool:
    if gate == "==":
        return measured == predicted
    if gate == ">=":
        return measured >= predicted
    if gate.startswith("rel<="):
        return abs(measured - predicted) <= float(gate[5:]) * abs(predicted)
    if gate.startswith("<="):
        # The bound absorbs the rounding of a measured ratio.
        return measured <= float(gate[2:]) + 1e-9
    raise ValueError(f"unknown gate {gate!r}")


def reconcile(rows: Iterable[tuple[str, float, float, str]]) -> Reconciliation:
    """Gate each ``(quantity, predicted, measured, gate)`` row.

    Gates: ``"=="`` (exact), ``">="`` (measured at least predicted),
    ``"rel<=t"`` (measured within ``t`` of predicted, relative to
    predicted) and ``"<=x"`` (measured at most ``x``). Values keep their
    types, so an artifact written from the rows is unchanged by them.
    """
    return Reconciliation(
        tuple(Check(q, p, m, _passes(g, p, m), g) for q, p, m, g in rows)
    )
