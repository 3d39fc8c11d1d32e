"""Run the end-to-end benchmark: one fresh child process per workload and mode.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace 0|1] [--out FILE] [--smoke]

Without ``--workload`` every workload runs, one at a time; without
``--trace`` both the timed run (end-to-end metrics) and the traced run
(per-layer metrics) are made. Every metric is printed by name with its
unit, and each run ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; ``--out`` also writes
the full record (host, calibration samples, blocks, informational
numbers). The exit code is non-zero, and no result line is printed, if a
child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import pin_threads  # noqa: E402  (needs ROOT on the path)

#: Set-ups measured per timed run (the run's own and extra ``setup``
#: children); ``setup_s`` is their median. The builder's contract asks
#: for it: "set up several times in a run and report the median".
SETUP_RUNS = 3
#: Traces and the traced run's temporary checkpoint land here.
OUT_DIR = ROOT / ".e2e_out"
#: A child that has not finished by then is killed (contract: 180 s a run).
CHILD_TIMEOUT_S = 150

def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def _child(workload: str, mode: str, args, env: dict) -> dict:
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", workload, "--mode", mode,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--out-dir", str(OUT_DIR), "--started", repr(time.time()),
    ]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_timed(workload: str, args, env: dict, units: dict) -> dict:
    """End-to-end metrics: one timed child, then set-up-only children."""
    main = _child(workload, "timed", args, env)
    setups = [main["setup_s"]]
    attempted, failed = main["attempted"], main["failed"]
    for _ in range(0 if args.smoke else SETUP_RUNS - 1):
        extra = _child(workload, "setup", args, env)
        setups.append(extra["setup_s"])
        attempted += extra["attempted"]
        failed += extra["failed"]
    metrics = {
        "images_per_cal": main["images_per_cal"],
        "setup_s": statistics.median(setups),
        "peak_alloc_mb": main["peak_alloc_mb"],
        "ok_share": (attempted - failed) / attempted,
    }
    info = {
        "images_per_s": main["images_per_s"],
        "timed_s": main["timed_s"],
        "blocks": len(main["blocks"]),
        "calib_spread": main["calib_spread"],
        # After the first ten blocks (fixed work): exact at one seed.
        **main["summary"],
    }
    return {
        "trace": 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "info": info, "setup_samples_s": setups, "blocks": main["blocks"],
        "calib_s": main["calib_s"], "calib_parts_s": main["calib_parts_s"],
        "host": main["host"], "warnings": main["warnings"],
    }


def run_traced(workload: str, args, env: dict) -> dict:
    """Per-layer metrics: one traced child."""
    main = _child(workload, "traced", args, env)
    return {
        "trace": 1, "attempted": main["attempted"], "failed": main["failed"],
        "metrics": main["layer_metrics"],
        "info": {**main["summary"], "trace_file": main["trace_file"], "spans": main["spans"]},
        "calib_s": main["calib_s"], "host": main["host"], "warnings": main["warnings"],
    }


def _report(workload: str, run: dict) -> None:
    kind = "traced (per-layer)" if run["trace"] else "timed (end-to-end)"
    print(f"== {workload}: {kind} ==")
    for name, m in run["metrics"].items():
        if m["value"] or not run["trace"]:  # a layer this workload skips reads 0
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for name, value in run["info"].items():
        print(f"  ({name} = {value})")
    for warning in run["warnings"]:
        print(f"  WARNING: {warning}", file=sys.stderr)


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--out", default=None, help="write the full record here")
    ap.add_argument("--smoke", action="store_true",
                    help="one block per phase; checks plumbing, not speed")
    args = ap.parse_args(argv)

    pin_threads()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    runs = []
    for workload in [args.workload] if args.workload else names:
        for traced in (0, 1) if args.trace is None else (args.trace,):
            if traced:
                run = run_traced(workload, args, env)
            else:
                run = run_timed(workload, args, env, units)
            run.update(workload=workload, seed=args.seed, seconds=args.seconds,
                       correct=run["failed"] == 0)
            runs.append(run)
            _report(workload, run)
            # The contract's result line; the last one printed is the last line.
            print(json.dumps({k: run[k] for k in ("correct", "attempted", "failed", "metrics")}))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"benchmark": "benchmarks/e2e", "smoke": args.smoke, "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
