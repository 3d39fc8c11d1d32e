"""Mesh reconciliation harness: live predicted-vs-measured agreement,
the micro-slot contract, the Frontier-scale sweep, and the CI gate."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments import mesh_axes
from repro.experiments.mesh_axes import MicroSlotError
from repro.experiments.mesh_crossover import (
    CROSSOVER_MESHES,
    EXACT_AXES,
    PP_TOLERANCE,
    AxisReconciliation,
    run_mesh_crossover,
    run_mesh_reconciliation,
)
from repro.mesh.spec import MeshSpec

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def reconciliation():
    # One engine-backed pass over every CONFIGS row (the tentpole's
    # acceptance criterion, at reduced step count for test wall-clock).
    return run_mesh_reconciliation(steps=1)


class TestReconciliation:
    def test_every_configs_row_covered_on_all_axes(self, reconciliation):
        assert len(reconciliation) == 3 * len(mesh_axes.CONFIGS)
        labels = {r.label for r in reconciliation}
        assert labels == {label for label, _, _ in mesh_axes.CONFIGS}

    def test_tp_and_dp_match_exactly(self, reconciliation):
        for r in reconciliation:
            if r.axis in EXACT_AXES:
                assert r.tolerance == 0.0
                assert r.predicted_bytes == r.measured_bytes, (r.label, r.axis)
                assert r.predicted_calls == r.measured_calls, (r.label, r.axis)

    def test_pp_within_documented_tolerance(self, reconciliation):
        for r in reconciliation:
            if r.axis == "pp":
                assert r.tolerance == PP_TOLERANCE
                assert r.ok, (r.label, r.predicted_bytes, r.measured_bytes)

    def test_all_rows_reconcile(self, reconciliation):
        assert all(r.ok for r in reconciliation)


class TestMicroSlotContract:
    def test_indivisible_dp_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(
            mesh_axes,
            "CONFIGS",
            [("dp3", MeshSpec(dp=3), "ddp")],
        )
        with pytest.raises(MicroSlotError, match="bit-identical"):
            mesh_axes.run_mesh_axes(steps=1)

    def test_error_is_a_value_error(self):
        assert issubclass(MicroSlotError, ValueError)


class TestCrossoverSweep:
    def test_sweep_covers_every_mesh_at_every_node_count(self):
        points = run_mesh_crossover(node_grid=[4])
        assert len(points) == len(CROSSOVER_MESHES)
        for p in points:
            assert p.world == 32
            assert p.ips > 0
            assert p.step_time_s > 0
            assert 0.0 <= p.bubble_fraction < 1.0
            assert p.memory_gib > 0

    def test_pp_compositions_report_bubble_and_axis_seconds(self):
        points = run_mesh_crossover(node_grid=[4])
        by_mesh = {p.mesh: p for p in points}
        assert by_mesh["dp"].bubble_fraction == 0.0
        assert by_mesh["pp8 x dp"].bubble_fraction > 0.0
        assert by_mesh["tp8 x dp"].tp_comm_s > 0.0
        assert by_mesh["pp4 x tp8 x dp"].pp_comm_s > 0.0


def _load_check_regression():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO / "benchmarks" / "check_regression.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _artifact(reconciled: bool, n_axes: int = 18) -> dict:
    return {
        "schema": 1,
        "steps": 2,
        "pp_tolerance": PP_TOLERANCE,
        "reconciled": reconciled,
        "axes": [
            {
                "mesh": f"m{i}",
                "axis": "dp",
                "predicted_bytes": 1.0,
                "measured_bytes": 1 if reconciled else 2,
                "predicted_calls": 1,
                "measured_calls": 1,
                "tolerance": 0.0,
                "ok": reconciled,
            }
            for i in range(n_axes)
        ],
    }


class TestRegressionGate:
    def test_reconciled_artifact_passes(self):
        cr = _load_check_regression()
        good = _artifact(reconciled=True)
        assert cr.compare_meshperf(good, good) == []

    def test_drifted_artifact_fails(self):
        cr = _load_check_regression()
        problems = cr.compare_meshperf(_artifact(reconciled=False), _artifact(True))
        assert problems
        assert "reconcile" in problems[0]

    def test_coverage_shrink_fails(self):
        cr = _load_check_regression()
        problems = cr.compare_meshperf(
            _artifact(True, n_axes=3), _artifact(True, n_axes=18)
        )
        assert any("covers 3" in p for p in problems)

    def test_render_lists_drifting_axes(self):
        cr = _load_check_regression()
        out = cr.render_meshperf(_artifact(False, n_axes=2), _artifact(True))
        assert "DRIFTED" in out
        assert "m0/dp" in out

    def test_render_prints_the_host_record_when_present(self):
        cr = _load_check_regression()
        art = _artifact(True)
        assert "host:" not in cr.render_meshperf(art, art)  # older artifacts
        art["host"] = {
            "cpu_count": 2, "cpu_model": "TestCPU", "python": "3.11", "numpy": "2.0"
        }
        out = cr.render_meshperf(art, art)
        assert "host: 2 x TestCPU, python 3.11, numpy 2.0" in out

    def test_meshperf_registered_as_optional_artifact(self):
        cr = _load_check_regression()
        art = cr.ARTIFACTS["meshperf"]
        assert art.fresh.name == "MESHPERF.json"
        assert art.baseline.name == "MESHPERF.baseline.json"
        assert art.producer == "bench_meshperf.py"
        assert (art.compare, art.render) == (cr.compare_meshperf, cr.render_meshperf)


def test_committed_meshperf_baseline_is_reconciled():
    path = REPO / "benchmarks" / "MESHPERF.baseline.json"
    data = json.loads(path.read_text())
    assert data["reconciled"] is True
    assert len(data["axes"]) == 3 * len(mesh_axes.CONFIGS)
    assert {"cpu_count", "cpu_model", "python", "numpy"} <= set(data["host"])


def test_repro_facade_exports_mesh_prediction():
    import repro

    assert "predict_mesh_traffic" in repro.__all__
    assert "MeshTrafficPrediction" in repro.__all__
    assert repro.predict_mesh_traffic is not None
