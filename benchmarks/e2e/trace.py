"""Outside-in layer trace: bench-side spans, parent ids, self time, layer metrics.

Nothing here adds an emit site to ``src/``. A traced block sees the
program through three public seams only:

- instance-level wrappers this file puts around public calls
  (``bench.*`` spans, recorded on the same bus so they nest with the
  program's own spans);
- the program's existing emit sites, read through ``telemetry=``
  (``compute.fwd_bwd``, ``comm.*``, ``optim.step``, ``worker.*``,
  ``serve.*``);
- the public ledgers (``SimComm.stats``, ``ServerStats``, the
  autoscaler's events and the replica pool's priced active time), read
  by the caller.

A layer is a module name under ``src/repro/``. Times are medians per
step or per episode, in ms.
"""

from __future__ import annotations

import statistics
from dataclasses import replace

from repro.serve import latency_stats, slo_attainment
from repro.telemetry import write_span_trace

#: Every per-layer metric and its unit. A workload reports all of them;
#: the ones a workload does not exercise read 0.
PER_LAYER = {
    "models.fwd_ms": "ms",
    "models.bwd_ms": "ms",
    "models.fwd_bwd_ms": "ms",
    "optim.step_ms": "ms",
    "data.prep_ms": "ms",
    "core.step_ms_p50": "ms",
    "core.step_ms_p95": "ms",
    "core.self_ms": "ms",
    "core.ckpt_save_ms": "ms",
    "core.ckpt_mb": "MiB",
    "core.final_loss": "loss",
    "comm.busy_ms": "ms",
    "comm.calls_per_step": "count",
    "comm.bytes_per_step": "B",
    "comm.retries": "count",
    "comm.tp_ms": "ms",
    "comm.dp_ms": "ms",
    "comm.pp_ms": "ms",
    "comm.tp_bytes_per_step": "B",
    "comm.dp_bytes_per_step": "B",
    "comm.pp_bytes_per_step": "B",
    "mesh.stage_ms": "ms",
    "mesh.bubble_share": "ratio",
    "backend.worker_busy_ms": "ms",
    "backend.wait_ms": "ms",
    "backend.worker_imbalance": "ratio",
    "backend.worker_cpu_ms": "ms",
    "backend.spawn_s": "s",
    "backend.worker_rss_mb": "MiB",
    "serve.gen_ms": "ms",
    "serve.run_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.loop_self_ms": "ms",
    "serve.encode_calls": "count",
    "serve.batch_size_mean": "count",
    "serve.queue_depth_max": "count",
    "serve.offered": "count",
    "serve.served": "count",
    "serve.rejected_rate_limited": "count",
    "serve.rejected_queue_full": "count",
    "serve.timed_out": "count",
    "serve.requeued": "count",
    "serve.cache_hit_share": "ratio",
    "serve.scale_events": "count",
    "serve.mean_replicas": "count",
    "serve.cost_usd_per_hour": "USD/h",
    "serve.latency_virtual_ms_p50": "ms",
    "serve.latency_virtual_ms_p99": "ms",
    "serve.slo_attainment": "ratio",
    "telemetry.overhead_share": "ratio",
    "telemetry.events_per_step": "count",
    "host.calib_ms_p50": "ms",
    "host.calib_spread": "ratio",
    "host.loadavg": "count",
    "host.raw_images_per_s": "img/s",
}


class Wrappers:
    """Instance-level span wrappers around public calls.

    Setting the attribute on the instance shadows the class's method for
    that one object; deleting it restores the method. Installed for
    traced blocks only, so untraced blocks run the program as it is.
    """

    def __init__(self, bus):
        self.bus = bus
        self._installed: list[tuple[object, str]] = []

    def wrap(self, obj, attr: str, name: str) -> None:
        inner = getattr(obj, attr)
        bus = self.bus

        def spanned(*args, **kwargs):
            with bus.span(name):
                return inner(*args, **kwargs)

        self.replace(obj, attr, spanned)

    def replace(self, obj, attr: str, fn) -> None:
        setattr(obj, attr, fn)
        self._installed.append((obj, attr))

    def remove(self) -> None:
        while self._installed:
            obj, attr = self._installed.pop()
            delattr(obj, attr)


# -- spans -------------------------------------------------------------------


def link_spans(events) -> list[dict]:
    """Give every span an id and the id of the span that caused it.

    Spans recorded in this process nest by the bus's own depth counter:
    sorted by start, a span's parent is the latest span one level up.
    Spans fanned in from worker processes (they carry ``rank``) were
    re-stamped at merge time, which happens inside the parent's
    ``compute.fwd_bwd`` span of the same round: that span is their parent.
    """
    spans = [
        {
            "id": i,
            "parent": None,
            "name": e.name,
            "start": e.t_s,
            "dur": e.value,
            "step": e.step,
            "depth": e.depth,
            "attrs": e.attrs,
            "merged": "rank" in e.attrs,
            "event": e,
        }
        for i, e in enumerate(e for e in events if e.kind == "span")
    ]
    stack: list[dict] = []
    rounds: list[dict] = []
    for s in sorted(spans, key=lambda s: (s["merged"], s["start"], s["depth"])):
        if s["merged"]:
            inside = [r for r in rounds if r["start"] <= s["start"]]
            s["parent"] = inside[-1]["id"] if inside else None
            continue
        while stack and stack[-1]["depth"] >= s["depth"]:
            stack.pop()
        if stack:
            s["parent"] = stack[-1]["id"]
        stack.append(s)
        if s["name"] == "compute.fwd_bwd":
            rounds.append(s)
    return spans


def write_trace(spans: list[dict], path: str, process_name: str) -> None:
    """Chrome trace via the repo's exporter; ``id``/``parent`` ride in args
    and ``step`` is the id every span of one step (or episode) shares."""
    events = [
        replace(s["event"], attrs={**s["attrs"], "id": s["id"], "parent": s["parent"]})
        for s in spans
    ]
    write_span_trace(events, path, process_name=process_name)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _p95(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    # Nearest-rank: an observed value, also with few steps.
    return values[min(len(values) - 1, int(0.95 * len(values)))]


def _per_step(spans, steps, keep, value=lambda s: s["dur"]) -> list[float]:
    acc = dict.fromkeys(steps, 0.0)
    for s in spans:
        if s["step"] in acc and keep(s):
            acc[s["step"]] += value(s)
    return list(acc.values())


def _self_time(span, spans) -> float:
    return span["dur"] - sum(
        c["dur"] for c in spans if c["parent"] == span["id"] and not c["merged"]
    )


def train_layer_metrics(spans: list[dict], points: list, *, pipeline_stages: int,
                        micros_per_rank: int) -> dict:
    """Layer metrics of the traced training steps.

    ``points`` are the bus's counters and gauges. ``pipeline_stages`` is 0
    off the mesh; with it the idle share of a stage is the closed form
    ``(pp - 1) / (m + pp - 1)`` for ``m`` micro-batches per pipeline.
    """
    step_spans = [s for s in spans if s["name"] == "bench.engine.train_step"]
    steps = [s["step"] for s in step_spans]
    by_id = {s["id"]: s for s in spans}
    local = [s for s in spans if not s["merged"]]
    comm = [s for s in local if s["name"].startswith("comm.")]

    def under_compute(s) -> bool:
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == "compute.fwd_bwd":
                return True
        return False

    def named(name):
        return lambda s: s["name"] == name

    def on_axis(axis):
        return lambda s: s["attrs"].get("axis") == axis

    step_ms = [_ms(s["dur"]) for s in step_spans]
    compute = _per_step(local, steps, named("compute.fwd_bwd"))
    nested_comm = _per_step(comm, steps, under_compute)
    fwd = _per_step(local, steps, named("bench.model.forward"))
    bwd = _per_step(local, steps, named("bench.model.backward"))
    out = {
        "core.step_ms_p50": _median(step_ms),
        "core.step_ms_p95": _p95(step_ms),
        "core.self_ms": _ms(_median(_self_time(s, spans) for s in step_spans)),
        "optim.step_ms": _ms(_median(_per_step(local, steps, named("optim.step")))),
        "models.fwd_ms": _ms(_median(fwd)),
        "models.bwd_ms": _ms(_median(bwd)),
        "comm.busy_ms": _ms(_median(_per_step(comm, steps, lambda s: True))),
        "comm.retries": sum(
            p.value for p in points if p.kind == "counter" and p.name == "comm.retries"
        ),
        "telemetry.events_per_step": (len(spans) + len(points)) / max(1, len(steps)),
    }
    for axis in ("tp", "dp", "pp"):
        out[f"comm.{axis}_ms"] = _ms(_median(_per_step(comm, steps, on_axis(axis))))
        out[f"comm.{axis}_bytes_per_step"] = _median(
            _per_step(comm, steps, on_axis(axis), lambda s: s["attrs"].get("bytes", 0.0))
        )

    # data: what trainer.run spends outside train_step, per step.
    prep = []
    for run in (s for s in local if s["name"] == "bench.trainer.run"):
        inside = [s["dur"] for s in step_spans if s["parent"] == run["id"]]
        if inside:
            prep.append((run["dur"] - sum(inside)) / len(inside))
    out["data.prep_ms"] = _ms(_median(prep))

    # backend: the workers' own account, fanned in per round.
    ranks = sorted({s["attrs"]["rank"] for s in spans if s["name"] == "worker.fwd_bwd"})
    model_s = [c - n for c, n in zip(compute, nested_comm)]
    if ranks:
        busy = [
            _per_step(spans, steps, lambda s, r=r: s["name"] == "worker.fwd_bwd"
                      and s["attrs"]["rank"] == r)
            for r in ranks
        ]
        slowest = [max(col) for col in zip(*busy)]
        cpu = {step: dict.fromkeys(ranks, 0.0) for step in steps}
        for p in points:
            if p.name == "worker.cpu_s" and p.step in cpu:
                cpu[p.step][p.attrs["rank"]] += p.value
        out["backend.worker_busy_ms"] = _ms(_median(slowest))
        out["backend.wait_ms"] = _ms(_median(c - w for c, w in zip(compute, slowest)))
        out["backend.worker_imbalance"] = _median(
            max(col) / (sum(col) / len(col)) for col in zip(*busy)
        )
        out["backend.worker_cpu_ms"] = _ms(_median(max(c.values()) for c in cpu.values()))
        model_s = slowest
    elif any(fwd):
        model_s = [f + b for f, b in zip(fwd, bwd)]
    # Time in model math: the wrappers where the engine calls
    # model.forward/backward in this process, the slowest worker where
    # it runs in workers, the stage time on a pipeline.
    out["models.fwd_bwd_ms"] = _ms(_median(model_s))
    if pipeline_stages:
        out["mesh.stage_ms"] = _ms(_median(c - n for c, n in zip(compute, nested_comm)))
        out["mesh.bubble_share"] = (pipeline_stages - 1) / (
            micros_per_rank + pipeline_stages - 1
        )
    return out


def serve_layer_metrics(spans: list[dict], virtual_points: list, episodes: list,
                        slo_s: float) -> dict:
    """Layer metrics of the traced serving episodes.

    ``episodes`` are the workload's ``Episode`` records (arrivals,
    responses and the server with its public ledgers).
    ``virtual_points`` are the servers' own gauges (virtual-time bus).
    Counts are totals over the traced episodes and repeat exactly at one
    seed; times are wall-clock medians per episode.
    """
    ids = sorted({s["step"] for s in spans if s["name"] == "bench.episode"})

    def named(name):
        return lambda s: s["name"] == name

    run = _per_step(spans, ids, named("bench.server.run_traffic"))
    encode = _per_step(spans, ids, named("bench.encoder.encode_features"))
    stats = [ep.server.stats for ep in episodes]
    responses = [r for ep in episodes for r in ep.responses]
    latency = latency_stats(responses)
    hits = sum(s.cache_hits for s in stats)
    lookups = hits + sum(s.cache_misses for s in stats)

    return {
        "serve.gen_ms": _ms(_median(_per_step(spans, ids, named("bench.generate_workload")))),
        "serve.run_ms": _ms(_median(run)),
        "serve.encode_ms": _ms(_median(encode)),
        "serve.loop_self_ms": _ms(_median(r - e for r, e in zip(run, encode))),
        "serve.encode_calls": _median(
            _per_step(spans, ids, named("bench.encoder.encode_features"), lambda s: 1)
        ),
        "serve.batch_size_mean": sum(s.batched_images for s in stats)
        / max(1, sum(s.batches for s in stats)),
        "serve.queue_depth_max": max(
            (p.value for p in virtual_points if p.name == "serve.queue_depth"), default=0.0
        ),
        "serve.offered": sum(len(ep.events) for ep in episodes),
        "serve.served": sum(s.served for s in stats),
        "serve.rejected_rate_limited": sum(s.rejected_rate_limited for s in stats),
        "serve.rejected_queue_full": sum(s.rejected_queue_full for s in stats),
        "serve.timed_out": sum(s.timed_out for s in stats),
        "serve.requeued": sum(s.requeued for s in stats),
        "serve.cache_hit_share": hits / max(1, lookups),
        "serve.scale_events": sum(len(ep.server.autoscaler.events) for ep in episodes),
        "serve.mean_replicas": statistics.fmean(ep.mean_replicas for ep in episodes),
        "serve.cost_usd_per_hour": statistics.fmean(ep.cost_usd_per_hour for ep in episodes),
        "serve.latency_virtual_ms_p50": latency["p50_ms"],
        "serve.latency_virtual_ms_p99": latency["p99_ms"],
        # Over offered requests: rejected and timed-out ones are misses.
        "serve.slo_attainment": slo_attainment(responses, slo_s),
        "telemetry.events_per_step": (len(spans) + len(virtual_points)) / max(1, len(ids)),
    }
