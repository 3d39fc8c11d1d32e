"""Benchmark driver: mesh perf-model reconciliation.

Thin wrapper over
:func:`repro.experiments.mesh_crossover.run_mesh_reconciliation`: trains
the proxy MAE under every ``mesh_axes.CONFIGS`` composition and settles
the measured per-axis wire traffic against the closed-form predictions
from ``repro.perf.mesh_model`` through the one
``repro.telemetry.report.reconcile`` (one ``Reconciliation`` per mesh,
a bytes and a calls row per axis). It writes ``MESHPERF.json`` next to
this file, one entry per (mesh, axis), for
``benchmarks/check_regression.py`` — whose gate is correctness, not
throughput: ``reconciled`` must hold (tp and dp match to the byte and to
the call; pp within the documented tolerance).

Usage::

    PYTHONPATH=src python benchmarks/bench_meshperf.py
    python benchmarks/check_regression.py
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(out_path: str | None = None) -> dict:
    """Run the reconciliation and write the artifact; returns the summary."""
    from bench_multicore import host_record  # sibling script

    from repro.experiments.mesh_axes import STEPS
    from repro.experiments.mesh_crossover import (
        PP_TOLERANCE,
        axis_rows,
        run_mesh_reconciliation,
    )

    results = run_mesh_reconciliation(STEPS)
    summary = {
        "schema": 1,
        "host": host_record(),
        "steps": STEPS,
        "pp_tolerance": PP_TOLERANCE,
        "reconciled": all(recon.reconciled for _, recon in results),
        "axes": [
            {
                "mesh": label,
                "axis": axis,
                "predicted_bytes": b.predicted,
                "measured_bytes": b.measured,
                "predicted_calls": c.predicted,
                "measured_calls": c.measured,
                "tolerance": tol,
                "ok": b.ok and c.ok,
            }
            for label, axis, tol, b, c in axis_rows(results)
        ],
    }
    path = Path(out_path) if out_path is not None else HERE / "MESHPERF.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    verdict = "reconciled" if summary["reconciled"] else "DRIFTED"
    print(
        f"meshperf: {len(summary['axes'])} axis rows over "
        f"{len(results)} meshes -> {verdict} ({path})"
    )
    return summary


if __name__ == "__main__":
    summary = main()
    raise SystemExit(0 if summary["reconciled"] else 1)
