"""Compare two sets of runs of the benchmark, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py A.json ... -- B.json ...

``A`` is the parent (the base of every ratio), ``B`` the change; each
file is a record written by ``run.py --out``. Two kinds of row:

- *measured* metrics (the end-to-end ones of ``BENCHMARK.json``, plus
  raw ``images_per_s``): each side's median and quartiles, ``B/A`` with
  its base, and the verdict. ``within``: B's median is no worse than A's
  by more than the bound. ``worse``: it is. ``unresolved``: A's own
  spread (q3 - q1 over its median) is wider than the bound, so this set
  of runs cannot tell. The bound is ``BENCHMARK.json``'s, or the tighter
  one of ``TIGHTER`` where the workload is steadier than the one bound
  the driver's file can hold.
- ``correct``: every run of B must have passed every check. A median
  hides one failing run in ten; this row does not.
- *exact* metrics (counts, virtual-time numbers and the loss, all after
  fixed work): a pure function of the seed, so runs are paired by seed
  and every pair must agree; ``within`` only if all do.

The output is a Markdown table (``SELFCHECK.md`` is one).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Informational timing row: too host-dependent to gate (see README).
RAW_THROUGHPUT = {"name": "images_per_s", "unit": "img/s", "better": "higher", "bound": 0.10}

#: ``BENCHMARK.json`` holds one bound per metric, which the noisiest
#: workload sets. Where a workload is steadier this table is tighter:
#: three times the widest spread a set of ten runs has shown on it
#: (``SELFCHECK.md`` and the sets in README), rounded up to a whole per
#: cent, and never below the 2 % the issue asked of ``peak_alloc_mb``.
TIGHTER = {
    ("train_dense", "images_per_cal"): 0.15,
    ("train_fsdp_proc", "images_per_cal"): 0.22,
    ("train_mesh", "images_per_cal"): 0.11,
    ("train_dense", "peak_alloc_mb"): 0.02,
    ("train_fsdp_proc", "peak_alloc_mb"): 0.02,
    ("train_mesh", "peak_alloc_mb"): 0.02,
    ("serve_openloop", "peak_alloc_mb"): 0.06,
}

#: Metrics that must repeat exactly at one seed, and the relative
#: tolerance that counts as "exactly" (the loss: 1e-6). The first three
#: come from the timed runs (after their first ten blocks), the rest
#: from the traced runs.
EXACT = {
    "final_loss": 1e-6,
    "slo_attainment": 0.0,
    "p99_virtual_ms": 0.0,
    "core.final_loss": 1e-6,
    "comm.calls_per_step": 0.0,
    "comm.bytes_per_step": 0.0,
    "comm.tp_bytes_per_step": 0.0,
    "comm.dp_bytes_per_step": 0.0,
    "comm.pp_bytes_per_step": 0.0,
    "comm.retries": 0.0,
    "serve.offered": 0.0,
    "serve.served": 0.0,
    "serve.rejected_rate_limited": 0.0,
    "serve.rejected_queue_full": 0.0,
    "serve.timed_out": 0.0,
    "serve.requeued": 0.0,
    "serve.cache_hit_share": 0.0,
    "serve.scale_events": 0.0,
    "serve.mean_replicas": 0.0,
    "serve.cost_usd_per_hour": 0.0,
    "serve.latency_virtual_ms_p50": 0.0,
    "serve.latency_virtual_ms_p99": 0.0,
    "serve.slo_attainment": 0.0,
}


def load(paths: list[str]) -> list[dict]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            runs.extend(json.load(f)["runs"])
    return runs


def _value(run: dict, name: str):
    if name in run["metrics"]:
        return run["metrics"][name]["value"]
    return run["info"].get(name)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = _quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``within`` / ``worse`` / ``unresolved`` for one measured metric."""
    if spread(a) > bound:
        return "unresolved"
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_a - med_b if better == "higher" else med_b - med_a) / abs(med_a)
    return "worse" if worse_by > bound else "within"


def _side(values: list[float]) -> str:
    q1, med, q3 = _quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def compare(runs_a: list[dict], runs_b: list[dict], spec: dict) -> list[str]:
    """The Markdown rows."""
    rows = [
        "| workload | metric | better | bound | A: median [q1, q3] | B: median [q1, q3] "
        "| B/A (base: A median) | spread A, B | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    measured = spec["end_to_end"] + [RAW_THROUGHPUT]
    for workload in [w["name"] for w in spec["workloads"]]:
        timed = [
            [r for r in runs if r["workload"] == workload and r["trace"] == 0]
            for runs in (runs_a, runs_b)
        ]
        for m in measured:
            a, b = ([_value(r, m["name"]) for r in side] for side in timed)
            if not a or not b:
                continue
            bound = TIGHTER.get((workload, m["name"]), m["bound"])
            base = statistics.median(a)
            rows.append(
                f"| {workload} | {m['name']} ({m['unit']}) | {m['better']} | {bound:g} "
                f"| {_side(a)} | {_side(b)} | {statistics.median(b) / base:.4f} (base {base:.6g}) "
                f"| {spread(a):.4f}, {spread(b):.4f} "
                f"| {verdict(a, b, m['better'], bound)} |"
            )
        mine = [[r for r in runs if r["workload"] == workload] for runs in (runs_a, runs_b)]
        if not mine[0] or not mine[1]:
            continue
        passed = [sum(r["correct"] for r in side) for side in mine]
        rows.append(
            f"| {workload} | correct | all | 0 | {passed[0]}/{len(mine[0])} runs "
            f"| {passed[1]}/{len(mine[1])} runs | - | - "
            f"| {'within' if passed[1] == len(mine[1]) else 'worse'} |"
        )
        by_seed = [defaultdict(list), defaultdict(list)]
        for side, runs in zip(by_seed, mine):
            for r in runs:
                side[r["seed"], r["trace"]].append(r)
        keys = sorted(set(by_seed[0]) & set(by_seed[1]))
        for name, tol in EXACT.items():
            pairs = [
                (_value(ra, name), _value(rb, name))
                for key in keys
                for ra in by_seed[0][key]
                for rb in by_seed[1][key]
            ]
            pairs = [(x, y) for x, y in pairs if x is not None and y is not None]
            # A layer the workload does not have reads 0 and gets no row;
            # a 0 of its own layers (no request timed out) is a result.
            layered = "." in name
            if not pairs or (
                layered and name.startswith("serve.") != workload.startswith("serve")
            ):
                continue
            agree = sum(abs(x - y) <= tol * abs(x) for x, y in pairs)
            lo, hi = min(x for x, _ in pairs), max(x for x, _ in pairs)
            rows.append(
                f"| {workload} | {name} | exact | {tol:g} | {lo:.6g} .. {hi:.6g}, {len(pairs)} pairs "
                f"| paired by seed | {agree}/{len(pairs)} pairs agree | - "
                f"| {'within' if agree == len(pairs) else 'worse'} |"
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        sys.stderr.write(__doc__)
        return 2
    cut = argv.index("--")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", nargs="+")
    args = ap.parse_args(argv[:cut])
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    sys.stdout.write("\n".join(compare(load(args.a), load(argv[cut + 1 :]), spec)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
