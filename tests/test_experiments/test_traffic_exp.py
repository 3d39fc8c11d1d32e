"""The traffic experiment: planned fleet reconciles, autoscaler moves,
the million-user sweep is closed-form, and the CLI runs it."""

from __future__ import annotations

from repro.experiments.__main__ import main as cli_main
from repro.experiments.traffic_exp import (
    USER_GRID,
    render_traffic,
    run_traffic,
    run_traffic_autoscale,
    run_traffic_plan,
    run_user_extrapolation,
)


class TestTrafficPlan:
    def test_planned_fleet_reconciles(self):
        plan, result, recon = run_traffic_plan()
        assert recon.reconciled
        assert result.offered > 0
        assert result.admitted_attainment >= plan.attainment_target
        # The free tier's flash runs into its bucket: the raw attainment
        # (door rejections included) sits below the admitted one.
        assert result.rejected > 0
        assert result.attainment < result.admitted_attainment

    def test_autoscaler_exercises_both_directions(self):
        result, autoscaler = run_traffic_autoscale()
        actions = {e.action for e in autoscaler.events}
        assert actions == {"up", "down"}
        assert result.max_replicas > 1
        assert result.measured_cost_usd > 0.0


class TestUserExtrapolation:
    def test_sweep_covers_grid_and_scales_monotonically(self):
        rows = run_user_extrapolation()
        assert [users for users, _, _ in rows] == USER_GRID
        costs = [plan.predicted_cost_per_hour for _, _, plan in rows]
        assert costs == sorted(costs)
        # The largest population needs a real fleet, not one replica.
        assert rows[-1][2].n_replicas > 1


class TestRendering:
    def test_render_is_complete_and_cli_runs(self, capsys):
        text = render_traffic(run_traffic())
        assert "-> reconciled" in text
        assert "Scale decisions" in text
        assert "virtual users" in text
        assert cli_main(["traffic"]) == 0
        assert "traffic" in capsys.readouterr().out
