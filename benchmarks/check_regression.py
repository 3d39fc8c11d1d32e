"""Compare fresh bench artifacts against the committed baselines.

Covers ``BENCH_hotpath.json`` (substrate training throughput),
``BENCH_serving.json`` (online serving throughput/saturation),
``BENCH_multicore.json`` (process-backend wall-clock speedup and
bit-identity),
``ELASTIC_campaign.json`` (resize chaos campaign bit-identity), and
``MESHPERF.json`` (mesh perf-model predicted-vs-measured reconciliation).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py      # fresh run
    PYTHONPATH=src python benchmarks/bench_serving.py      # fresh run
    PYTHONPATH=src python benchmarks/bench_multicore.py    # fresh run
    PYTHONPATH=src python benchmarks/bench_elastic.py      # fresh run
    PYTHONPATH=src python benchmarks/bench_meshperf.py     # fresh run
    python benchmarks/check_regression.py                  # diff vs baselines
    python benchmarks/check_regression.py --update meshperf  # bless that one

Exits nonzero when any proxy model's measured images/second fell more
than ``--threshold`` (default 15%) below the baseline, so CI can gate
merges on substrate throughput. Improvements are reported but never
fail; bless them into the baseline with ``--update`` to tighten the bar.

Absolute throughput is machine-dependent: the committed baseline is only
meaningful when fresh run and baseline come from the same machine class.
Several gates are machine-*relative* and checked against the artifact's
own threshold rather than the baseline: the attention fused-vs-naive
speedup (1.3x), the serving saturation ratio (serving >= 0.9x offline
inference on the same replica set), and the multicore wall-clock
speedup (process backend >= 1.2x inline at 4 workers, interleaved pairs;
skipped on a host with fewer than 2 CPUs) plus its fp32 bit-identity
flag. The hotpath artifact is required; serving and multicore artifacts
are optional — missing ones are reported with the command that produces
them, never a traceback. ``--update NAME...`` blesses the named
baselines in one atomic batch (stage-then-rename, so an interrupted
update never leaves a half-new baseline set).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FRESH = HERE / "BENCH_hotpath.json"
BASELINE = HERE / "BENCH_hotpath.baseline.json"
SERVING_FRESH = HERE / "BENCH_serving.json"
SERVING_BASELINE = HERE / "BENCH_serving.baseline.json"
MULTICORE_FRESH = HERE / "BENCH_multicore.json"
MULTICORE_BASELINE = HERE / "BENCH_multicore.baseline.json"
ELASTIC_FRESH = HERE / "ELASTIC_campaign.json"
ELASTIC_BASELINE = HERE / "ELASTIC_campaign.baseline.json"
MESHPERF_FRESH = HERE / "MESHPERF.json"
MESHPERF_BASELINE = HERE / "MESHPERF.baseline.json"
DEFAULT_THRESHOLD = 0.15

#: Optional artifact -> (baseline path, producing command). The hotpath
#: artifact is handled separately because it is required.
OPTIONAL_ARTIFACTS = {
    "serving": (SERVING_FRESH, SERVING_BASELINE, "bench_serving.py"),
    "multicore": (MULTICORE_FRESH, MULTICORE_BASELINE, "bench_multicore.py"),
    "elastic": (ELASTIC_FRESH, ELASTIC_BASELINE, "bench_elastic.py"),
    "meshperf": (MESHPERF_FRESH, MESHPERF_BASELINE, "bench_meshperf.py"),
}


def compare(
    fresh: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Return a list of regression messages (empty = pass)."""
    problems: list[str] = []
    base_steps = baseline.get("steps", {})
    fresh_steps = fresh.get("steps", {})
    for name, base in base_steps.items():
        if name not in fresh_steps:
            problems.append(f"{name}: missing from fresh run")
            continue
        got = fresh_steps[name]["images_per_sec"]
        want = base["images_per_sec"]
        change = (got - want) / want
        if change < -threshold:
            problems.append(
                f"{name}: {got:.1f} images/s vs baseline {want:.1f} "
                f"({change:+.1%}, allowed -{threshold:.0%})"
            )
    gate = fresh.get("gate", {})
    if gate.get("attention_speedup_median", 0.0) < gate.get("threshold", 0.0):
        problems.append(
            f"attention speedup {gate['attention_speedup_median']:.2f}x "
            f"below its own {gate['threshold']}x gate"
        )
    return problems


def compare_serving(
    fresh: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Regressions in the serving artifact (empty = pass)."""
    problems: list[str] = []
    got = fresh.get("throughput", {}).get("serving_images_per_s", 0.0)
    want = baseline.get("throughput", {}).get("serving_images_per_s", 0.0)
    if want > 0:
        change = (got - want) / want
        if change < -threshold:
            problems.append(
                f"serving: {got:.1f} images/s vs baseline {want:.1f} "
                f"({change:+.1%}, allowed -{threshold:.0%})"
            )
    gate = fresh.get("gate", {})
    if gate.get("saturation_ratio", 0.0) < gate.get("threshold", 0.0):
        problems.append(
            f"serving saturation {gate['saturation_ratio']:.3f}x below its "
            f"own {gate['threshold']}x gate"
        )
    # Open-loop gates are virtual-time quantities judged against the
    # artifact's own recorded targets — machine-independent by design.
    planned = fresh.get("open_loop", {}).get("planned", {})
    if planned:
        att = planned.get("admitted_attainment", 0.0)
        target = planned.get("attainment_target", 0.0)
        if att < target:
            problems.append(
                f"serving open-loop: SLO attainment {att:.3f} below its own "
                f"target {target}"
            )
        if not planned.get("reconciled", False):
            problems.append(
                "serving open-loop: capacity plan no longer reconciles with "
                "the measured run"
            )
        pred = planned.get("predicted_cost_per_hour", 0.0)
        meas = planned.get("measured_cost_per_hour", 0.0)
        tol = planned.get("cost_tolerance", 0.0)
        if pred > 0 and abs(meas - pred) / pred > tol:
            problems.append(
                f"serving open-loop: measured cost {meas:.3f} $/h drifted "
                f"more than {tol:.0%} from predicted {pred:.3f} $/h"
            )
    auto = fresh.get("open_loop", {}).get("autoscale", {})
    if auto and auto.get("scale_events", 0) == 0:
        problems.append(
            "serving open-loop: autoscale scenario made no scale decisions"
        )
    return problems


def _multicore_skip(fresh: dict) -> str | None:
    """Why the wall-clock gate does not apply to this artifact's host."""
    cpus = fresh.get("host", {}).get("cpu_count", 0)
    if cpus < 2:
        return f"speedup gate skipped: {cpus} CPU, workers can only take turns"
    return None


def compare_multicore(
    fresh: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Regressions in the multicore artifact (empty = pass).

    Both gates are machine-relative, so they are read from the fresh
    artifact's own gate block and never diffed against the baseline: a
    wall-clock ratio from another host class is not a baseline.
    """
    problems: list[str] = []
    gate = fresh.get("gate", {})
    if not gate.get("bit_identical", False):
        problems.append("multicore: process backend no longer fp32 bit-identical")
    got = gate.get("speedup_wall", 0.0)
    if _multicore_skip(fresh) is None and got < gate.get("floor", 0.0):
        problems.append(
            f"multicore wall-clock speedup {got:.2f}x at {gate.get('workers')} "
            f"workers below its own {gate.get('floor')}x floor"
        )
    return problems


def compare_elastic(
    fresh: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Regressions in the resize-campaign artifact (empty = pass).

    Correctness gates, not throughput: the campaign must stay bit-exact
    with the uninterrupted oracle, and must not have quietly shrunk
    below the baseline's transition coverage.
    """
    problems: list[str] = []
    if not fresh.get("bit_identical", False):
        problems.append(
            "elastic: resize campaign no longer bit-identical to the "
            f"uninterrupted run (max |dp| = {fresh.get('max_abs_param_diff')})"
        )
    want = baseline.get("requeues", 0)
    if fresh.get("requeues", 0) < want:
        problems.append(
            f"elastic: campaign covers {fresh.get('requeues', 0)} requeues, "
            f"baseline covered {want}"
        )
    return problems


def compare_meshperf(
    fresh: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Regressions in the mesh perf-model artifact (empty = pass).

    Correctness gate, not throughput: the analytic model's per-axis
    byte/call predictions must reconcile with the measured telemetry
    (tp/dp exactly, pp within its own tolerance), and the fresh run must
    not have quietly dropped mesh coverage below the baseline.
    """
    problems: list[str] = []
    if not fresh.get("reconciled", False):
        bad = [r for r in fresh.get("axes", []) if not r.get("ok", False)]
        detail = ", ".join(f"{r['mesh']}/{r['axis']}" for r in bad) or "unknown"
        problems.append(
            f"meshperf: predicted traffic no longer reconciles with measured "
            f"telemetry ({detail})"
        )
    want = len(baseline.get("axes", []))
    if len(fresh.get("axes", [])) < want:
        problems.append(
            f"meshperf: fresh run covers {len(fresh.get('axes', []))} axis "
            f"rows, baseline covered {want}"
        )
    return problems


def _host_lines(fresh: dict) -> list[str]:
    """Where the fresh artifact was measured, when it records that."""
    host = fresh.get("host")
    if not host:
        return []
    return [
        f"{'':<12}   host: {host.get('cpu_count', '?')} x "
        f"{host.get('cpu_model', '?')}, python {host.get('python', '?')}, "
        f"numpy {host.get('numpy', '?')}"
    ]


def render_meshperf(fresh: dict, baseline: dict) -> str:
    """One-line mesh reconciliation verdict plus any drifting axes."""
    verdict = "reconciled" if fresh.get("reconciled") else "DRIFTED"
    rows = fresh.get("axes", [])
    meshes = {r["mesh"] for r in rows}
    lines = [
        f"{'meshperf':<12} {len(rows):>9} axis rows over {len(meshes)} meshes"
        f"   ({verdict}, pp tol {fresh.get('pp_tolerance', 0.0):.0%})"
    ]
    lines += _host_lines(fresh)
    for r in rows:
        if not r.get("ok", False):
            lines.append(
                f"{'':<12}   {r['mesh']}/{r['axis']}: predicted "
                f"{r['predicted_bytes']:.0f}B/{r['predicted_calls']} vs "
                f"measured {r['measured_bytes']}B/{r['measured_calls']}"
            )
    return "\n".join(lines)


def render_elastic(fresh: dict, baseline: dict) -> str:
    """Resize campaign summary: verdict plus the transition chain."""
    verdict = "bit-identical" if fresh.get("bit_identical") else "DIVERGED"
    lines = [
        f"{'elastic':<12} {fresh.get('requeues', 0):>9} requeues over "
        f"{fresh.get('total_steps', 0)} steps   ({verdict}, backends "
        f"{'/'.join(fresh.get('backends_exercised', []))})"
    ]
    for t in fresh.get("transitions", []):
        lines.append(f"{'':<12}   step {t['step']:>3}: {t['from']} -> {t['to']}")
    return "\n".join(lines)


def render_serving(fresh: dict, baseline: dict) -> str:
    """One-line serving throughput comparison."""
    got = fresh.get("throughput", {})
    want = baseline.get("throughput", {})
    g, w = got.get("serving_images_per_s", 0.0), want.get("serving_images_per_s", 0.0)
    change = g / w - 1.0 if w > 0 else 0.0
    lines = [
        f"{'serving':<12} {w:>10.1f} {g:>10.1f} {change:>+7.1%}   "
        f"(saturation {fresh.get('gate', {}).get('saturation_ratio', 0.0):.3f}x)"
    ]
    lines += _host_lines(fresh)
    planned = fresh.get("open_loop", {}).get("planned", {})
    if planned:
        verdict = "reconciled" if planned.get("reconciled") else "DRIFTED"
        lines.append(
            f"{'open loop':<12} {planned.get('fleet', '?'):>10} fleet, "
            f"attainment {planned.get('admitted_attainment', 0.0):.3f} "
            f"(target {planned.get('attainment_target', 0.0)}), "
            f"{planned.get('measured_cost_per_hour', 0.0):.2f} $/h   ({verdict})"
        )
    return "\n".join(lines)


def render_multicore(fresh: dict, baseline: dict) -> str:
    """One-line multicore wall-clock verdict."""
    gate = fresh.get("gate", {})
    verdict = _multicore_skip(fresh) or f"floor {gate.get('floor', 0.0)}x"
    lines = [
        f"{'multicore':<12} {gate.get('speedup_wall', 0.0):>9.2f}x wall at "
        f"{gate.get('workers', '?')} workers   ({verdict}, bit-identical "
        f"{gate.get('bit_identical', False)})"
    ]
    return "\n".join(lines + _host_lines(fresh))


def render(fresh: dict, baseline: dict) -> str:
    """Side-by-side throughput table."""
    lines = [f"{'model':<12} {'baseline':>10} {'fresh':>10} {'change':>8}"]
    for name, base in baseline.get("steps", {}).items():
        got = fresh.get("steps", {}).get(name)
        if got is None:
            lines.append(f"{name:<12} {base['images_per_sec']:>10.1f} {'—':>10}")
            continue
        change = got["images_per_sec"] / base["images_per_sec"] - 1.0
        lines.append(
            f"{name:<12} {base['images_per_sec']:>10.1f} "
            f"{got['images_per_sec']:>10.1f} {change:>+7.1%}"
        )
    return "\n".join(lines + _host_lines(fresh))


def update_baselines(names: list[str]) -> list[str]:
    """Bless the named fresh artifacts atomically; returns messages.

    Each name is ``"hotpath"`` or a key of :data:`OPTIONAL_ARTIFACTS`,
    and its fresh artifact must exist. All staging copies are written
    first; the renames happen only after every copy succeeded, so a
    failure mid-update leaves the committed baselines exactly as they
    were (rename within a directory is atomic on POSIX).
    """
    table = {"hotpath": (FRESH, BASELINE, "bench_hotpath.py"), **OPTIONAL_ARTIFACTS}
    pending = [table[name][:2] for name in names]
    staged: list[tuple[Path, Path]] = []
    try:
        for fresh_path, baseline_path in pending:
            tmp = baseline_path.with_suffix(".json.tmp")
            tmp.write_text(fresh_path.read_text())
            staged.append((tmp, baseline_path))
        for tmp, baseline_path in staged:
            os.replace(tmp, baseline_path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    return [f"baseline updated from {fresh_path}" for fresh_path, _ in pending]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh", type=Path, default=FRESH, help="fresh bench artifact"
    )
    parser.add_argument(
        "--baseline", type=Path, default=BASELINE, help="committed baseline"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional throughput drop (default 0.15)",
    )
    parser.add_argument(
        "--update",
        nargs="+",
        choices=["hotpath", *OPTIONAL_ARTIFACTS],
        metavar="ARTIFACT",
        help="bless the named fresh artifacts (hotpath, "
        + ", ".join(OPTIONAL_ARTIFACTS)
        + ") as their baselines and exit 0",
    )
    args = parser.parse_args(argv)

    if args.update is not None:
        try:
            for line in update_baselines(args.update):
                print(line)
        except FileNotFoundError as err:
            print(f"no fresh artifact at {err.filename}; run its bench first")
            return 2
        return 0

    if not args.fresh.exists():
        print(f"no fresh artifact at {args.fresh}; run bench_hotpath.py first")
        return 2
    fresh = json.loads(args.fresh.read_text())

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update hotpath to create it")
        return 2
    baseline = json.loads(args.baseline.read_text())

    print(render(fresh, baseline))
    problems = compare(fresh, baseline, threshold=args.threshold)

    renderers = {
        "serving": render_serving,
        "multicore": render_multicore,
        "elastic": render_elastic,
        "meshperf": render_meshperf,
    }
    comparers = {
        "serving": compare_serving,
        "multicore": compare_multicore,
        "elastic": compare_elastic,
        "meshperf": compare_meshperf,
    }
    for name, (fresh_path, baseline_path, cmd) in OPTIONAL_ARTIFACTS.items():
        if fresh_path.exists() and baseline_path.exists():
            opt_fresh = json.loads(fresh_path.read_text())
            opt_baseline = json.loads(baseline_path.read_text())
            print(renderers[name](opt_fresh, opt_baseline))
            problems += comparers[name](
                opt_fresh, opt_baseline, threshold=args.threshold
            )
        elif fresh_path.exists() or baseline_path.exists():
            print(
                f"{name}: fresh artifact and baseline incomplete; skipping "
                f"(run {cmd} first, then --update {name})"
            )

    if problems:
        print("\nREGRESSION:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("\nno throughput regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
