"""In-process telemetry bus: spans, counters, and gauges for real runs.

The paper's entire performance study (Sections III-IV) is built from
instrumentation — images/s weak-scaling curves, per-GPU memory, the
communication share of a step, and rocm-smi power/utilization traces.
This module is the measured counterpart of the *simulated* timelines in
:mod:`repro.perf`: a zero-dependency (stdlib + NumPy-free) event bus the
hot layers publish to while they run.

Three primitives, one event record:

``span``
    A timed region (``with bus.span("comm.all_reduce", bytes=n): ...``).
    Spans nest; each event records its start offset, duration, and
    nesting depth, which is exactly what the Chrome-trace exporter needs
    to render a measured step in Perfetto.
``counter``
    A monotonically accumulated quantity (retries, backoff seconds,
    wire bytes). Counters with the same name are summed on aggregation.
``gauge``
    A point-in-time reading (loss, lr, images/s, power draw).

Design rules:

- **Opt-in and near-free when off.** The default sink is
  :class:`NullSink`; with it attached, ``bus.span(...)`` returns a
  cached no-op context manager and ``counter``/``gauge`` return
  immediately — the hot path pays one attribute check per call site
  (guarded by the ``bench_hotpath`` regression gate).
- **Step attribution.** Engines call :meth:`TelemetryBus.set_step` at
  the top of every optimizer step, so every event — including retry
  backoff charged deep inside the collective layer — lands on the step
  that incurred it.
- **Plain data out.** Events are frozen dataclasses that serialize to
  one JSON object each; :class:`JsonlSink` streams them to disk and
  :func:`read_jsonl` round-trips them back.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

__all__ = [
    "TelemetryEvent",
    "Sink",
    "NullSink",
    "RecordingSink",
    "JsonlSink",
    "TelemetryBus",
    "StepStats",
    "NULL_BUS",
    "read_jsonl",
]

#: Event kinds a bus can emit.
EVENT_KINDS = ("span", "counter", "gauge")


@dataclass(frozen=True)
class TelemetryEvent:
    """One bus emission (a finished span, a counter bump, or a reading).

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    name:
        Dotted metric name; the prefix is the subsystem (``comm.``,
        ``compute.``, ``step.``, ``data.``, ``hw.``, ``perf.``).
    value:
        Span duration in seconds, counter increment, or gauge reading.
    t_s:
        Seconds since the bus epoch (span *start* time for spans).
    step:
        Optimizer step the event is attributed to (``None`` outside a
        training step).
    depth:
        Span nesting depth at emission (0 = outermost); 0 for
        counters/gauges.
    attrs:
        Small JSON-able attribute mapping (bytes moved, op name, ...).
    """

    kind: str
    name: str
    value: float
    t_s: float
    step: int | None = None
    depth: int = 0
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """The event as one JSON-ready dict (inverse of :meth:`from_json`)."""
        out = {
            "kind": self.kind,
            "name": self.name,
            "value": self.value,
            "t_s": self.t_s,
            "step": self.step,
            "depth": self.depth,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_json(cls, d: dict) -> "TelemetryEvent":
        """Rebuild an event from :meth:`to_json` output."""
        return cls(
            kind=str(d["kind"]),
            name=str(d["name"]),
            value=float(d["value"]),
            t_s=float(d["t_s"]),
            step=d.get("step"),
            depth=int(d.get("depth", 0)),
            attrs=dict(d.get("attrs", {})),
        )


class Sink:
    """Destination for bus events (subclass hook)."""

    def emit(self, event: TelemetryEvent) -> None:
        """Consume one event."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (no-op by default)."""


class NullSink(Sink):
    """Discards every event; the default, near-zero-overhead sink."""

    def emit(self, event: TelemetryEvent) -> None:
        """Drop the event."""


class RecordingSink(Sink):
    """Keeps every event in memory (``.events``) for in-process analysis."""

    def __init__(self):
        self.events: list[TelemetryEvent] = []

    def emit(self, event: TelemetryEvent) -> None:
        """Append the event to :attr:`events`."""
        self.events.append(event)


class JsonlSink(Sink):
    """Streams events to a JSONL file (one JSON object per line).

    Accepts a path (opened and owned by the sink; :meth:`close` closes
    it) or an already-open text file object (caller keeps ownership).
    """

    def __init__(self, path_or_file: str | Path | io.TextIOBase):
        if isinstance(path_or_file, (str, Path)):
            self._file = open(path_or_file, "w", encoding="utf-8")
            self._owned = True
        else:
            self._file = path_or_file
            self._owned = False
        self.n_events = 0

    def emit(self, event: TelemetryEvent) -> None:
        """Write the event as one JSON line."""
        self._file.write(json.dumps(event.to_json()) + "\n")
        self.n_events += 1

    def close(self) -> None:
        """Flush; close the file if this sink opened it."""
        self._file.flush()
        if self._owned:
            self._file.close()


def read_jsonl(path: str | Path) -> list[TelemetryEvent]:
    """Load a JSONL event stream written by :class:`JsonlSink`."""
    events = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(TelemetryEvent.from_json(json.loads(line)))
    return events


class _NullSpan:
    """Cached no-op context manager returned by disabled buses."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Live span: times one region and emits a ``span`` event on exit."""

    __slots__ = ("_bus", "_name", "_attrs", "_t0")

    def __init__(self, bus: "TelemetryBus", name: str, attrs: dict):
        self._bus = bus
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        self._bus._depth += 1
        self._t0 = self._bus._clock()
        return self

    def __exit__(self, *exc):
        bus = self._bus
        t1 = bus._clock()
        bus._depth -= 1
        bus.sink.emit(
            TelemetryEvent(
                kind="span",
                name=self._name,
                value=t1 - self._t0,
                t_s=self._t0 - bus._epoch,
                step=bus.step,
                depth=bus._depth,
                attrs=self._attrs,
            )
        )
        return False


class TelemetryBus:
    """The instrumentation bus the hot layers publish to.

    Parameters
    ----------
    sink:
        Event destination; defaults to :class:`NullSink` (telemetry
        off). Swap at any time with :meth:`attach`.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(self, sink: Sink | None = None, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self._depth = 0
        self.step: int | None = None
        self.attach(sink if sink is not None else NullSink())

    @property
    def enabled(self) -> bool:
        """False when the attached sink is a :class:`NullSink`."""
        return self._enabled

    def attach(self, sink: Sink) -> "TelemetryBus":
        """Swap the sink (returns self so construction chains)."""
        self.sink = sink
        self._enabled = not isinstance(sink, NullSink)
        return self

    def set_step(self, step: int | None) -> None:
        """Attribute subsequent events to optimizer step ``step``."""
        self.step = step

    def span(self, name: str, **attrs) -> _Span | _NullSpan:
        """Context manager timing one region; no-op when disabled."""
        if not self._enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def counter(self, name: str, value: float = 1.0, **attrs) -> None:
        """Accumulate ``value`` onto counter ``name``."""
        if not self._enabled:
            return
        self.sink.emit(
            TelemetryEvent(
                kind="counter",
                name=name,
                value=float(value),
                t_s=self._clock() - self._epoch,
                step=self.step,
                attrs=attrs,
            )
        )

    def gauge(self, name: str, value: float, **attrs) -> None:
        """Record a point-in-time reading of ``name``."""
        if not self._enabled:
            return
        self.sink.emit(
            TelemetryEvent(
                kind="gauge",
                name=name,
                value=float(value),
                t_s=self._clock() - self._epoch,
                step=self.step,
                attrs=attrs,
            )
        )

    def record_span(
        self, name: str, start_s: float, duration_s: float, **attrs
    ) -> None:
        """Emit a span whose extent is already known (no context manager).

        For event-driven layers (the serving loop) a region's start and
        duration are scheduler facts, not something a ``with`` block can
        measure — the work is dispatched at one event and delivered at a
        later one. ``start_s`` is a reading of the bus's own clock (the
        same values ``clock()`` returns); it is converted to the bus
        epoch exactly like a live span's start.
        """
        if not self._enabled:
            return
        if duration_s < 0:
            raise ValueError(f"duration_s must be non-negative, got {duration_s}")
        self.sink.emit(
            TelemetryEvent(
                kind="span",
                name=name,
                value=float(duration_s),
                t_s=start_s - self._epoch,
                step=self.step,
                depth=self._depth,
                attrs=attrs,
            )
        )

    def merge(self, events, **attrs) -> None:
        """Replay events recorded on another bus (e.g. a worker rank's).

        The process execution backend fans in per-worker telemetry each
        round: workers record on a local bus, ship the round's events
        with their reply, and the parent replays them here. Kind, name,
        value (a span's *duration* survives intact), depth and original
        attributes are preserved; ``attrs`` (typically ``rank=r``) are
        merged on top. ``t_s`` is re-stamped on this bus's clock and
        ``step`` on this bus's current step: worker clocks live in a
        different time domain, so their raw offsets are not comparable
        with the parent timeline.
        """
        if not self._enabled:
            return
        now = self._clock() - self._epoch
        for ev in events:
            self.sink.emit(
                TelemetryEvent(
                    kind=ev.kind,
                    name=ev.name,
                    value=ev.value,
                    t_s=now,
                    step=self.step,
                    depth=ev.depth,
                    attrs={**ev.attrs, **attrs},
                )
            )

    def close(self) -> None:
        """Close the attached sink."""
        self.sink.close()


#: Shared disabled bus; the default `telemetry` of every instrumented layer.
NULL_BUS = TelemetryBus()


@dataclass(frozen=True)
class StepStats:
    """Per-optimizer-step training vitals (the paper's core observables).

    Emitted by the trainers after every step: wall time, throughput in
    images/second (the y-axis of Figures 1-4), loss, and learning rate.
    """

    step: int
    wall_s: float
    images_per_s: float
    loss: float
    lr: float

    def emit(self, telemetry: TelemetryBus) -> None:
        """Publish the stats as ``step.*`` gauges attributed to the step."""
        telemetry.set_step(self.step)
        telemetry.gauge("step.wall_s", self.wall_s)
        telemetry.gauge("step.images_per_s", self.images_per_s)
        telemetry.gauge("step.loss", self.loss)
        telemetry.gauge("step.lr", self.lr)
