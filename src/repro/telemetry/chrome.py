"""Chrome-trace export of telemetry streams, measured and simulated.

Converts a recorded :class:`~repro.telemetry.bus.TelemetryEvent` stream
into the Trace Event JSON format, so a measured DDP or FSDP run and a
simulated step (:meth:`repro.perf.schedule.StepSchedule.record`) open
side by side in ``chrome://tracing`` / Perfetto.

Spans become complete (``"X"``) events. A measured span runs on the one
``train`` lane (Perfetto renders properly-nested same-lane slices as a
flame stack); a span with a ``stream`` attribute, as every simulated one
has, runs on that stream's own lane, so compute and comm sit on separate
lanes. Gauges and counters become counter (``"C"``) events, so loss,
images/s, memory and power plot as counter tracks under the slices.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.telemetry.bus import TelemetryEvent

__all__ = ["to_trace_events", "write_span_trace"]

_US = 1e6  # trace event timestamps are microseconds


def to_trace_events(
    events: Iterable[TelemetryEvent], process_name: str = "measured"
) -> list[dict]:
    """Convert bus events into Chrome Trace Event dicts."""
    lanes: dict[str, int] = {}
    body: list[dict] = []
    for e in events:
        if e.kind == "span":
            args = dict(e.attrs)
            if e.step is not None:
                args["step"] = e.step
            body.append(
                {
                    "name": e.name,
                    "ph": "X",
                    "pid": 0,
                    "tid": lanes.setdefault(e.attrs.get("stream", "train"), len(lanes)),
                    "ts": e.t_s * _US,
                    "dur": e.value * _US,
                    "cat": e.name.split(".", 1)[0],
                    "args": args,
                }
            )
        else:  # counter / gauge -> Perfetto counter track
            body.append(
                {
                    "name": e.name,
                    "ph": "C",
                    "pid": 0,
                    "ts": e.t_s * _US,
                    "args": {e.name: e.value},
                }
            )
    head = [{"name": "process_name", "ph": "M", "pid": 0, "args": {"name": process_name}}]
    head.extend(
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": lane}}
        for lane, tid in (lanes or {"train": 0}).items()
    )
    return head + body


def write_span_trace(
    events: Iterable[TelemetryEvent], path: str, process_name: str = "measured"
) -> None:
    """Write a trace JSON of ``events`` to ``path`` (open with Perfetto)."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": to_trace_events(events, process_name)}, f)
