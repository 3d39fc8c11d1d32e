"""Check fresh bench artifacts against their own gates and baselines.

Covers ``BENCH_hotpath.json`` (fused-vs-naive kernels),
``BENCH_serving.json`` (online serving saturation and virtual-time
schedule), ``BENCH_multicore.json`` (process-backend wall-clock speedup
and bit-identity), ``ELASTIC_campaign.json`` (resize chaos campaign
bit-identity), and ``MESHPERF.json`` (mesh perf-model
predicted-vs-measured reconciliation).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py      # fresh run
    PYTHONPATH=src python benchmarks/bench_serving.py      # fresh run
    PYTHONPATH=src python benchmarks/bench_multicore.py    # fresh run
    PYTHONPATH=src python benchmarks/bench_elastic.py      # fresh run
    PYTHONPATH=src python benchmarks/bench_meshperf.py     # fresh run
    python benchmarks/check_regression.py                  # judge them
    python benchmarks/check_regression.py --update meshperf  # bless that one

No row diffs a wall-clock number against a committed one: a figure from
another host is not a baseline, and absolute throughput is what
``benchmarks/e2e`` judges against a parent run on the same machine.
*Machine-relative* gates are read from the fresh artifact's own gate
block: fused-vs-naive equivalence (< 1e-6) and attention speedup
(>= 1.3x), serving saturation (>= 0.9x offline inference on the same
replica set), multicore wall-clock speedup (>= 1.2x inline at 4
workers; skipped on a host with fewer than 2 CPUs). *Correctness* gates
hold on any host: bit-identity and ``reconciled`` flags, open-loop SLO
attainment and cost, coverage no smaller than the baseline's, and the
serving artifact's virtual-time ``latency`` / ``cache`` / ``open_loop``
blocks **equal** to the baseline's.

Every artifact is optional — a missing one is reported with the command
that produces it, never a traceback. ``--update NAME...`` blesses the
named baselines in one atomic batch (stage-then-rename, so an
interrupted update never leaves a half-new baseline set).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent

#: Serving blocks that are pure functions of (workload, configuration)
#: on the virtual clock: equal to the baseline's on every host.
SERVING_VIRTUAL_BLOCKS = ("latency", "cache", "open_loop")


def compare_hotpath(fresh: dict, baseline: dict) -> list[str]:
    """Failed gates of the hotpath artifact (empty = pass); both are
    ratios and differences taken inside one run on one host."""
    problems: list[str] = []
    gate = fresh.get("gate", {})
    diff = gate.get("equivalence_max_abs_diff", float("inf"))
    if not diff < 1e-6:
        problems.append(f"hotpath: fused-vs-naive max |diff| {diff:.2e} not < 1e-6")
    if gate.get("attention_speedup_median", 0.0) < gate.get("threshold", 0.0):
        problems.append(
            f"attention speedup {gate['attention_speedup_median']:.2f}x "
            f"below its own {gate['threshold']}x gate"
        )
    return problems


def compare_serving(fresh: dict, baseline: dict) -> list[str]:
    """Failed gates of the serving artifact (empty = pass)."""
    problems: list[str] = []
    gate = fresh.get("gate", {})
    if gate.get("saturation_ratio", 0.0) < gate.get("threshold", 0.0):
        problems.append(
            f"serving saturation {gate['saturation_ratio']:.3f}x below its "
            f"own {gate['threshold']}x gate"
        )
    # The schedule is virtual-time: any difference is a behaviour change
    # (bless it with --update serving when it is the intended one).
    for block in SERVING_VIRTUAL_BLOCKS:
        got, want = fresh.get(block, {}), baseline.get(block, {})
        if got != want:
            keys = sorted(k for k in {*got, *want} if got.get(k) != want.get(k))
            problems.append(
                f"serving: virtual-time {block!r} block differs from the "
                f"baseline at {', '.join(map(str, keys))}"
            )
    # Open-loop gates are judged against the artifact's own recorded
    # targets — machine-independent by design.
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


def compare_multicore(fresh: dict, baseline: dict) -> list[str]:
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


def compare_elastic(fresh: dict, baseline: dict) -> list[str]:
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


def compare_meshperf(fresh: dict, baseline: dict) -> list[str]:
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
    """Serving saturation on this host plus the virtual-time verdicts."""
    moved = [b for b in SERVING_VIRTUAL_BLOCKS if fresh.get(b) != baseline.get(b)]
    verdict = "DIFFER: " + ", ".join(moved) if moved else "equal"
    lines = [
        f"{'serving':<12} "
        f"{fresh.get('throughput', {}).get('serving_images_per_s', 0.0):>9.1f} img/s, "
        f"saturation {fresh.get('gate', {}).get('saturation_ratio', 0.0):.3f}x offline"
        f"   (virtual-time blocks {verdict})"
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


def render_hotpath(fresh: dict, baseline: dict) -> str:
    """One-line fused-vs-naive verdict."""
    gate = fresh.get("gate", {})
    lines = [
        f"{'hotpath':<12} {gate.get('attention_speedup_median', 0.0):>9.2f}x fused "
        f"attention vs naive   (gate {gate.get('threshold', 0.0)}x, max |diff| "
        f"{gate.get('equivalence_max_abs_diff', float('nan')):.1e})"
    ]
    return "\n".join(lines + _host_lines(fresh))


class Artifact(NamedTuple):
    """One gated artifact. ``baseline`` is None when every gate is read
    from the fresh file alone; ``compare(fresh, baseline)`` returns
    problem messages, ``render(fresh, baseline)`` its report lines."""

    fresh: Path
    baseline: Path | None
    producer: str
    compare: Callable[[dict, dict], list[str]]
    render: Callable[[dict, dict], str]


ARTIFACTS = {
    "hotpath": Artifact(
        HERE / "BENCH_hotpath.json", None, "bench_hotpath.py",
        compare_hotpath, render_hotpath,
    ),
    "serving": Artifact(
        HERE / "BENCH_serving.json", HERE / "BENCH_serving.baseline.json",
        "bench_serving.py", compare_serving, render_serving,
    ),
    "multicore": Artifact(
        HERE / "BENCH_multicore.json", HERE / "BENCH_multicore.baseline.json",
        "bench_multicore.py", compare_multicore, render_multicore,
    ),
    "elastic": Artifact(
        HERE / "ELASTIC_campaign.json", HERE / "ELASTIC_campaign.baseline.json",
        "bench_elastic.py", compare_elastic, render_elastic,
    ),
    "meshperf": Artifact(
        HERE / "MESHPERF.json", HERE / "MESHPERF.baseline.json",
        "bench_meshperf.py", compare_meshperf, render_meshperf,
    ),
}


def update_baselines(names: list[str]) -> list[str]:
    """Bless the named fresh artifacts atomically; returns messages.

    Each name is a key of :data:`ARTIFACTS` that has a baseline, and its
    fresh artifact must exist. All staging copies are written first; the
    renames happen only after every copy succeeded, so a failure
    mid-update leaves the committed baselines exactly as they were
    (rename within a directory is atomic on POSIX).
    """
    pending = [(ARTIFACTS[name].fresh, ARTIFACTS[name].baseline) for name in names]
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
    blessable = [name for name, art in ARTIFACTS.items() if art.baseline is not None]
    parser.add_argument(
        "--update",
        nargs="+",
        choices=blessable,
        metavar="ARTIFACT",
        help="bless the named fresh artifacts ("
        + ", ".join(blessable)
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

    problems: list[str] = []
    for name, art in ARTIFACTS.items():
        if not art.fresh.exists():
            print(f"{name}: no fresh artifact; skipping (run {art.producer} first)")
        elif art.baseline is not None and not art.baseline.exists():
            print(f"{name}: no baseline; skipping (bless one with --update {name})")
        else:
            fresh = json.loads(art.fresh.read_text())
            baseline = json.loads(art.baseline.read_text()) if art.baseline else {}
            print(art.render(fresh, baseline))
            problems += art.compare(fresh, baseline)

    if problems:
        print("\nREGRESSION:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("\nevery gate green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
