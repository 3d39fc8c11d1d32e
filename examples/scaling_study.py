"""Plan a Frontier allocation: which sharding strategy for which model?

The scenario from the paper's introduction: you have a ViT variant and a
node budget — which FSDP configuration should you submit? This example
sweeps every strategy over a node grid with the performance simulator
(publishing every grid point to a telemetry bus), prints the
throughput/memory table, picks the winner per scale, shows how far one
fixed-size job strong-scales, exports a Chrome
trace of one simulated step for inspection (chrome://tracing or
https://ui.perfetto.dev), and dumps the full telemetry stream — grid
gauges plus a synthesized rocm-smi-style power trace of the winning
configuration — to a JSONL file.

Usage: python examples/scaling_study.py [model] [max_nodes]
       e.g. python examples/scaling_study.py vit-3b 64
"""

import sys

from repro import JsonlSink, RecordingSink, TelemetryBus
from repro.core.config import get_vit_config
from repro.core.scaling import run_strategy_grid, run_strong_scaling
from repro.core.sharding import parse_strategy
from repro.experiments.report import render_series
from repro.hardware.frontier import frontier_machine
from repro.hardware.power import PowerModel
from repro.perf.simulator import TrainStepSimulator
from repro.serve.clock import VirtualClock
from repro.telemetry import write_span_trace
from repro.utils.units import GIB

STRATEGIES = [
    "DDP",
    "NO_SHARD",
    "HYBRID_1GPU",
    "HYBRID_2GPUs",
    "HYBRID_8GPUs",
    "FULL_SHARD",
    "SHARD_GRAD_OP",
]


def main(model_name: str = "vit-3b", max_nodes: int = 64) -> None:
    cfg = get_vit_config(model_name)
    nodes = [n for n in (1, 2, 4, 8, 16, 32, 64) if n <= max_nodes]
    print(f"sweeping {len(STRATEGIES)} strategies on {nodes} nodes...")
    events_path = f"scaling_telemetry_{model_name}.jsonl"
    bus = TelemetryBus(JsonlSink(events_path))
    grid = run_strategy_grid(cfg, STRATEGIES, nodes, telemetry=bus)

    print()
    print(
        render_series(
            "nodes",
            nodes,
            {s: g.ips for s, g in grid.items()},
            title=f"{model_name}: images/second by strategy",
        )
    )
    print()
    print(
        render_series(
            "nodes",
            nodes,
            {
                s: [round(p.memory.total / GIB, 1) for p in g.points]
                for s, g in grid.items()
            },
            title=f"{model_name}: per-GPU memory (GiB) by strategy",
            precision=1,
        )
    )

    print("\nrecommended strategy per scale:")
    hbm = frontier_machine(1).gpu.hbm_bytes
    for i, n in enumerate(nodes):
        feasible = {
            s: g.ips[i]
            for s, g in grid.items()
            if g.points[i].memory.total < hbm
        }
        if not feasible:
            print(f"  {n:>3} nodes: nothing fits!")
            continue
        best = max(feasible, key=feasible.get)
        print(f"  {n:>3} nodes: {best}  ({feasible[best]:.0f} ips)")

    # The same job spread wider: a fixed global batch, shrinking per GPU.
    strong = run_strong_scaling(cfg, "NO_SHARD", nodes, global_batch=2048)
    print("\nstrong scaling efficiency, NO_SHARD at global batch 2048:")
    for n, eff in zip(nodes, strong.efficiency()):
        print(f"  {n:>3} nodes: {eff:.2f}")

    # Export a trace of the best large-scale configuration.
    best_label = max(grid, key=lambda s: grid[s].ips[-1])
    strategy, shard_size = parse_strategy(best_label)
    sim = TrainStepSimulator(
        cfg, frontier_machine(nodes[-1]), strategy, shard_size=shard_size
    )
    out = f"step_trace_{model_name}_{best_label}.json"
    step = RecordingSink()
    step_bus = TelemetryBus(step, clock=VirtualClock().now)
    sim.build_schedule().record(step_bus)
    sim.memory().emit(step_bus)
    write_span_trace(step.events, out, process_name="simulated")
    print(f"\nwrote one simulated step of {best_label} to {out}")

    # Synthesize a rocm-smi-style power/util trace of the winner and
    # publish it onto the same bus before closing the JSONL stream.
    b = sim.simulate()
    trace = PowerModel().trace(
        step_time_s=b.step_time_s,
        compute_occupancy=b.compute_occupancy,
        comm_occupancy=b.comm_occupancy,
        memory_bytes=b.memory.total,
        n_steps=10,
        label=best_label,
    )
    n_gauges = trace.emit(bus)
    bus.close()
    print(
        f"wrote {bus.sink.n_events} telemetry events "
        f"({n_gauges} power/util gauges) to {events_path}"
    )


if __name__ == "__main__":
    main(
        sys.argv[1] if len(sys.argv) > 1 else "vit-3b",
        int(sys.argv[2]) if len(sys.argv) > 2 else 64,
    )
