"""Mesh reconciliation harness: live predicted-vs-measured agreement,
the micro-slot contract and the Frontier-scale sweep."""

from __future__ import annotations

import pytest

from repro.experiments import mesh_axes
from repro.experiments.mesh_axes import MicroSlotError
from repro.experiments.mesh_crossover import (
    AXES,
    CROSSOVER_MESHES,
    axis_rows,
    predict_crossover,
    run_mesh_reconciliation,
)
from repro.mesh.spec import MeshSpec


@pytest.fixture(scope="module")
def reconciliation():
    # One engine-backed pass over every CONFIGS row (the tentpole's
    # acceptance criterion, at reduced step count for test wall-clock).
    return run_mesh_reconciliation(steps=1)


class TestReconciliation:
    def test_every_configs_row_covered_on_all_axes(self, reconciliation):
        assert [label for label, _ in reconciliation] == [
            label for label, _, _ in mesh_axes.CONFIGS
        ]
        for _, recon in reconciliation:
            assert [r.quantity for r in recon.rows] == [
                f"{axis}_{what}" for axis in AXES for what in ("bytes", "calls")
            ]
        assert len(list(axis_rows(reconciliation))) == 3 * len(mesh_axes.CONFIGS)

    def test_tp_and_dp_match_exactly(self, reconciliation):
        for label, axis, b, c in axis_rows(reconciliation):
            if axis in ("tp", "dp"):
                assert b.gate == c.gate == "=="
                assert b.predicted == b.measured, (label, axis)
                assert c.predicted == c.measured, (label, axis)

    def test_pp_within_documented_tolerance(self, reconciliation):
        # The documented pp tolerance is zero: executed sends are predicted
        # exactly, so the pp axis is gated `==` like tp and dp.
        for label, axis, b, c in axis_rows(reconciliation):
            if axis == "pp":
                assert b.gate == c.gate == "=="
                assert b.predicted == b.measured, (label, axis)
                assert c.predicted == c.measured, (label, axis)

    def test_all_rows_reconcile(self, reconciliation):
        assert all(recon.reconciled for _, recon in reconciliation)


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
        points = predict_crossover(node_grid=[4])
        assert len(points) == len(CROSSOVER_MESHES)
        for p in points:
            assert p.world == 32
            assert p.ips > 0
            assert p.step_time_s > 0
            assert 0.0 <= p.bubble_fraction < 1.0
            assert p.memory_gib > 0

    def test_pp_compositions_report_bubble_and_axis_seconds(self):
        points = predict_crossover(node_grid=[4])
        by_mesh = {p.mesh: p for p in points}
        assert by_mesh["dp"].bubble_fraction == 0.0
        assert by_mesh["pp8 x dp"].bubble_fraction > 0.0
        assert by_mesh["tp8 x dp"].tp_comm_s > 0.0
        assert by_mesh["pp4 x tp8 x dp"].pp_comm_s > 0.0


def test_repro_facade_exports_mesh_prediction():
    import repro
    from repro import perf

    # repro.perf exports it; the top-level facade keeps what programs import.
    assert {"predict_mesh_traffic", "MeshTrafficPrediction"} <= set(perf.__all__)
    assert "predict_mesh_traffic" not in repro.__all__
    assert perf.predict_mesh_traffic is not None
