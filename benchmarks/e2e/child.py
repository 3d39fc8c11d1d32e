"""One workload, one mode, one fresh process. ``run.py`` starts these.

Modes:

``setup``   build, warm up, check the oracle, report ``setup_s``, exit.
``timed``   set-up, then the timed phase (default ``NULL_BUS``, no
            wrappers, calibration around every block), then the memory
            phase (one block under ``tracemalloc``).
``traced``  set-up, then pairs of one untraced and one traced block of
            fixed work, one checkpoint save, the layer metrics and the
            Chrome trace. Never feeds a timing end-to-end metric.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

from benchmarks.e2e import pin_threads

pin_threads()  # before NumPy is imported, here and in every worker

import argparse
import gc
import json
import multiprocessing
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from time import perf_counter

from repro.serve import SyntheticEncoder, VirtualClock
from repro.telemetry import NullSink, RecordingSink, TelemetryBus

from benchmarks.e2e import trace
from benchmarks.e2e.calib import Calibrator, host_record, noise_warnings
from benchmarks.e2e.workloads import SLO_S, WORKLOADS, ServeWorkload, Tally, make_workload

#: The timed phase never has fewer blocks than this, however slow the host.
MIN_BLOCKS = 10
#: Untraced/traced block pairs of the traced run (fixed work, so its
#: counts and ``core.final_loss`` repeat exactly at one seed).
TRACE_PAIRS = 3


def _block(wl, tally: Tally) -> tuple[int, float]:
    """One block: timed call into the program, then the untimed check."""
    t0 = perf_counter()
    out = wl.run_block()
    wall = perf_counter() - t0
    images, checked = wl.check_block(out)
    tally.add(checked.attempted, checked.failed)
    return images, wall


def _throughput(blocks: list, samples: list) -> dict:
    """``images_per_s`` is total work over total block time.
    ``images_per_cal`` multiplies each block's throughput by the mean of
    the calibration samples on either side of it and takes the median
    over blocks: images per calibration unit, with host drift cancelled."""
    per_cal = [
        images / wall * (before + after) / 2
        for (images, wall), before, after in zip(blocks, samples, samples[1:])
    ]
    return {
        "images_per_s": sum(i for i, _ in blocks) / sum(w for _, w in blocks),
        "images_per_cal": statistics.median(per_cal),
    }


def run_timed(wl, seconds: float, smoke: bool, tally: Tally) -> dict:
    cal = Calibrator()
    cal.sample()
    blocks = []
    deadline = perf_counter() + seconds
    min_blocks = 1 if smoke else MIN_BLOCKS
    while len(blocks) < min_blocks or (not smoke and perf_counter() < deadline):
        blocks.append(_block(wl, tally))
        cal.sample()
        if len(blocks) == min_blocks:
            # How many blocks fit in --seconds depends on the host; the
            # loss and the virtual-time numbers are taken after this
            # fixed amount of work, so they repeat exactly at one seed.
            fixed_work = wl.summary()
    # Memory phase: one more block, the program's allocations only. The
    # peak must not depend on how many blocks came before, nor on where
    # in the block a cyclic collection happens to fall.
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        out = wl.run_block()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    _, checked = wl.check_block(out)
    tally.add(checked.attempted, checked.failed)
    return {
        **_throughput(blocks, cal.samples),
        "peak_alloc_mb": peak / 2**20,
        "timed_s": sum(w for _, w in blocks),
        "summary": fixed_work,
        "blocks": [{"images": i, "wall_s": w} for i, w in blocks],
        "calib_s": cal.samples,
        "calib_parts_s": cal.parts,
        "calib_spread": cal.spread(),
    }


# -- the traced run ----------------------------------------------------------


def _worker_rss_mb() -> float:
    """Largest resident set among this process's live children."""
    worst = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="utf-8") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        worst = max(worst, int(line.split()[1]))
        except OSError:
            pass
    return worst / 1024


def _install_train(wl, wraps: trace.Wrappers) -> None:
    wraps.wrap(wl.trainer, "run", "bench.trainer.run")
    wraps.wrap(wl.engine, "train_step", "bench.engine.train_step")
    # Reached only where the engine calls the model in this process.
    wraps.wrap(wl.engine.model, "forward", "bench.model.forward")
    wraps.wrap(wl.engine.model, "backward", "bench.model.backward")


def _install_serve(wl: ServeWorkload, wraps: trace.Wrappers, virtual_sink) -> None:
    """Spans around every public call of an episode, nested under one
    ``bench.episode`` span whose step id is the episode's index."""
    bus = wraps.bus
    run_episode, make_server = wl.run_episode, wl.make_server

    def traced_episode():
        bus.set_step(wl.episode)
        with bus.span("bench.episode"):
            return run_episode()

    def traced_server():
        # The server's own emit sites run on its virtual clock.
        clock = VirtualClock()
        encoder = SyntheticEncoder()
        wraps.wrap(encoder, "encode_features", "bench.encoder.encode_features")
        virtual = TelemetryBus(virtual_sink, clock=clock.now)
        virtual.set_step(wl.episode)
        server = make_server(clock=clock, telemetry=virtual, encoder=encoder)
        wraps.wrap(server, "run_traffic", "bench.server.run_traffic")
        return server

    wraps.replace(wl, "run_episode", traced_episode)
    wraps.replace(wl, "make_server", traced_server)
    wraps.wrap(wl, "make_inputs", "bench.generate_workload")


def _comm_ledger(wl) -> tuple[int, float]:
    """Calls and wire bytes so far, from the public ``SimComm.stats``."""
    engine = getattr(wl, "engine", None)
    if engine is None:
        return 0, 0.0
    return engine.comm.stats.total_calls, engine.comm.stats.total_bytes


def run_traced(name: str, seed: int, smoke: bool, out_dir: str, corrupt: bool) -> dict:
    sink = RecordingSink()
    # Enabled while the engine is built: a mesh engine hands its tensor-
    # parallel context the bus only if it is live at construction.
    bus = TelemetryBus(sink)
    wraps = trace.Wrappers(bus)
    serving = name == ServeWorkload.name
    virtual_sink = RecordingSink()
    episodes: list = []
    untraced, traced = [], []
    comm_calls = comm_bytes = 0.0
    metrics = dict.fromkeys(trace.PER_LAYER, 0.0)
    cal = Calibrator()
    with tempfile.TemporaryDirectory(dir=out_dir) as ckpt_dir:
        wl = make_workload(name, seed, corrupt, telemetry=bus, checkpoint_dir=ckpt_dir)
        try:
            tally = wl.setup()
            sink.events.clear()
            bus.attach(NullSink())
            cal.sample()
            for _ in range(1 if smoke else TRACE_PAIRS):
                untraced.append(_block(wl, tally))
                cal.sample()
                bus.attach(sink)
                if serving:
                    _install_serve(wl, wraps, virtual_sink)
                else:
                    _install_train(wl, wraps)
                calls0, bytes0 = _comm_ledger(wl)
                t0 = perf_counter()
                out = wl.run_block()
                wall = perf_counter() - t0
                calls1, bytes1 = _comm_ledger(wl)
                comm_calls += calls1 - calls0
                comm_bytes += bytes1 - bytes0
                if serving:
                    episodes.extend(out)
                images, checked = wl.check_block(out)
                wraps.remove()
                bus.attach(NullSink())
                tally.add(checked.attempted, checked.failed)
                traced.append((images, wall))
                cal.sample()
            if not serving:
                bus.attach(sink)
                with bus.span("bench.trainer.save_snapshot"):
                    path = wl.trainer.save_snapshot()
                bus.attach(NullSink())
                metrics["core.ckpt_mb"] = os.path.getsize(path) / 2**20
                metrics["core.final_loss"] = wl.last_loss
                if multiprocessing.active_children():
                    metrics["backend.spawn_s"] = wl.build_s
                    metrics["backend.worker_rss_mb"] = _worker_rss_mb()
        finally:
            wl.close()

    spans = trace.link_spans(sink.events)
    points = [e for e in sink.events if e.kind != "span"]
    if serving:
        metrics.update(
            trace.serve_layer_metrics(spans, virtual_sink.events, episodes, SLO_S)
        )
    else:
        mesh = wl.spec.engine.get("mesh")
        metrics.update(
            trace.train_layer_metrics(
                spans,
                points,
                pipeline_stages=mesh.pp if mesh is not None else 0,
                micros_per_rank=wl.spec.engine.get("grad_accum_steps", 1),
            )
        )
        units = sum(1 for s in spans if s["name"] == "bench.engine.train_step")
        metrics["comm.calls_per_step"] = comm_calls / units
        metrics["comm.bytes_per_step"] = comm_bytes / units
        metrics["core.ckpt_save_ms"] = 1e3 * sum(
            s["dur"] for s in spans if s["name"] == "bench.trainer.save_snapshot"
        )

    # Same fixed work in both kinds of block, so wall time compares.
    metrics["telemetry.overhead_share"] = (
        statistics.median(w for _, w in traced)
        / statistics.median(w for _, w in untraced)
        - 1.0
    )
    metrics["host.raw_images_per_s"] = statistics.median(i / w for i, w in untraced)
    metrics["host.calib_ms_p50"] = 1e3 * statistics.median(cal.samples)
    metrics["host.calib_spread"] = cal.spread()
    metrics["host.loadavg"] = os.getloadavg()[0]

    trace_file = os.path.join(out_dir, f"trace_{name}.json")
    trace.write_trace(spans, trace_file, process_name=name)
    if serving:
        trace.write_trace(
            trace.link_spans(virtual_sink.events),
            os.path.join(out_dir, f"trace_{name}_virtual.json"),
            process_name=f"{name} (virtual clock)",
        )
    return {
        "layer_metrics": {
            k: {"value": metrics[k], "unit": unit} for k, unit in trace.PER_LAYER.items()
        },
        "calib_spread": cal.spread(),
        "trace_file": trace_file,
        "spans": len(spans),
        "calib_s": cal.samples,
        "summary": wl.summary(),
        "attempted": tally.attempted,
        "failed": tally.failed,
    }


# -- entry -------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--started", type=float, default=None,
                    help="time.time() just before this process was started")
    ap.add_argument("--out-dir", default=".")
    ap.add_argument("--smoke", action="store_true", help="one block per phase")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="test hook: check against a wrong oracle")
    args = ap.parse_args(argv)
    started = args.started if args.started is not None else time.time()
    os.makedirs(args.out_dir, exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    if args.mode == "traced":
        record.update(
            run_traced(args.workload, args.seed, args.smoke, args.out_dir,
                       args.corrupt_oracle)
        )
    else:
        wl = make_workload(args.workload, args.seed, args.corrupt_oracle)
        try:
            tally = wl.setup()
            # Child start to end of warm-up: interpreter, imports, build,
            # worker spawn, data generation, warm-up and the oracle check.
            record["setup_s"] = time.time() - started
            if args.mode == "timed":
                record.update(run_timed(wl, args.seconds, args.smoke, tally))
        finally:
            wl.close()
        record["attempted"] = tally.attempted
        record["failed"] = tally.failed
    host = record["host"] = host_record()
    record["warnings"] = noise_warnings(
        record.get("calib_spread", 1.0), host["loadavg"][0], host["nproc"]
    )
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
