"""Checks of the benchmark itself. Run explicitly: ``pytest benchmarks/e2e``
(tier-1 collects ``tests/`` only). The smoke test starts eight child
processes and takes about half a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.telemetry import RecordingSink, TelemetryBus  # noqa: E402

from benchmarks.e2e import child, compare, trace  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_emits_exactly_the_contract_names(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert [(r["workload"], r["trace"]) for r in runs] == [
        (w["name"], t) for w in SPEC["workloads"] for t in (0, 1)
    ]
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS
    for run in runs:
        declared = SPEC["per_layer" if run["trace"] else "end_to_end"]
        assert {n: m["unit"] for n, m in run["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
        assert all(NAME.fullmatch(n) for n in run["metrics"])
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        if not run["trace"]:
            assert all(m["value"] > 0 for m in run["metrics"].values())
            assert run["metrics"]["ok_share"]["value"] == 1.0
    # backend.* is the process backend's account and nobody else's.
    for run in (r for r in runs if r["trace"]):
        backend = [m["value"] for n, m in run["metrics"].items() if n.startswith("backend.")]
        assert all(backend) if run["workload"] == "train_fsdp_proc" else not any(backend)


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(name):
    def flat(inputs) -> tuple[np.ndarray, list]:
        if isinstance(inputs, np.ndarray):  # the training corpus
            return inputs, []
        numbers = [[e.t_s, e.deadline_s or 0.0, *e.image.ravel()] for e in inputs]
        return np.asarray(numbers), [e.tenant for e in inputs]

    a, b, other = (flat(make_workload(name, seed).make_inputs()) for seed in (7, 7, 8))
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
    assert not np.array_equal(a[0], other[0])


@pytest.mark.parametrize("name", ["train_dense", "serve_openloop"])
def test_a_corrupted_oracle_drives_ok_share_below_one(name, capsys):
    assert child.main(["--workload", name, "--mode", "setup", "--corrupt-oracle"]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0 < record["failed"] <= record["attempted"]


def test_spans_get_parents_and_self_time():
    ticks = iter(range(100))
    bus = TelemetryBus(RecordingSink(), clock=lambda: float(next(ticks)))
    with bus.span("bench.engine.train_step"):      # 1 .. 8
        with bus.span("compute.fwd_bwd"):          # 2 .. 5
            with bus.span("comm.all_gather", axis="tp", bytes=8.0):  # 3 .. 4
                pass
        with bus.span("optim.step"):               # 6 .. 7
            pass
    spans = {s["name"]: s for s in trace.link_spans(bus.sink.events)}
    step = spans["bench.engine.train_step"]
    assert step["parent"] is None
    assert spans["compute.fwd_bwd"]["parent"] == step["id"] == spans["optim.step"]["parent"]
    assert spans["comm.all_gather"]["parent"] == spans["compute.fwd_bwd"]["id"]
    assert trace._self_time(step, list(spans.values())) == 7 - 3 - 1


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [97.0] * 5, "higher", 0.06) == "within"
    assert compare.verdict(steady, [90.0] * 5, "higher", 0.06) == "worse"
    assert compare.verdict(steady, [110.0] * 5, "lower", 0.06) == "worse"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert compare.verdict(noisy, [90.0] * 5, "higher", 0.06) == "unresolved"


def test_compare_shows_a_failed_run_and_a_zero_count():
    def run(trace, seed, correct, metrics, info):
        return {
            "workload": "serve_openloop", "trace": trace, "seed": seed, "correct": correct,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
            "info": info,
        }

    def side(fail_seed):
        timed = [
            run(0, s, s != fail_seed,
                {"images_per_cal": 2000.0 + s, "setup_s": 1.4, "peak_alloc_mb": 17.0,
                 "ok_share": 1.0 if s != fail_seed else 0.99},
                {"images_per_s": 3e4, "slo_attainment": 0.6 + s / 100, "p99_virtual_ms": 2e3})
            for s in range(5)
        ]
        return timed + [run(1, 0, True, {"serve.timed_out": 0.0, "comm.retries": 0.0}, {})]

    rows = compare.compare(side(None), side(3), SPEC)
    cells = {r.split(" | ")[1]: r for r in rows[2:]}
    # One failing run in five leaves the median ok_share at 1.
    assert cells["ok_share (ratio)"].endswith("| within |")
    assert "5/6 runs" in cells["correct"] and cells["correct"].endswith("| worse |")
    assert "5/5 pairs agree" in cells["slo_attainment"]
    assert "serve.timed_out" in cells and "comm.retries" not in cells
