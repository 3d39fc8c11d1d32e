"""The traffic experiment: planned fleet reconciles, autoscaler moves,
both open-loop runs are pinned by value, the million-user sweep is
closed-form, and the report is complete. Every test reads the row's one
default run (the ``traffic`` fixture in conftest.py)."""

from __future__ import annotations

from repro.experiments.traffic_exp import SLO_S, USER_GRID, render_traffic


class TestTrafficPlan:
    def test_planned_fleet_reconciles(self, traffic):
        plan, result, recon = traffic[0]
        assert recon.reconciled
        assert result.offered > 0
        assert result.admitted_attainment >= plan.attainment_target
        # The free tier's flash runs into its bucket: the raw attainment
        # (door rejections included) sits below the admitted one.
        assert result.rejected > 0
        assert result.attainment < result.admitted_attainment

    def test_autoscaler_exercises_both_directions(self, traffic):
        result, autoscaler = traffic[1]
        actions = {e.action for e in autoscaler.events}
        assert actions == {"up", "down"}
        assert result.max_replicas > 1
        assert result.measured_cost_usd > 0.0


#: Both open-loop runs on the virtual clock, value for value: a moved
#: number is a changed schedule, plan or autoscaler, not noise.
OPEN_LOOP_PINS = {
    "slo_s": 0.25,
    "planned": {
        "fleet": "1xfast",
        "offered": 1370,
        "served": 1250,
        "rejected": 120,
        "timed_out": 0,
        "attainment": 0.9124087591240876,
        "admitted_attainment": 1.0,
        "attainment_target": 0.95,
        "predicted_cost_per_hour": 2.0,
        "measured_cost_per_hour": 2.0,
        "reconciled": True,
        "reconciliation": {
            "reconciled": True,
            "rows": [
                {"quantity": "slo_attainment", "predicted": 0.95, "measured": 1.0,
                 "ok": True, "gate": ">="},
                {"quantity": "cost_per_hour_usd", "predicted": 2.0, "measured": 2.0,
                 "ok": True, "gate": "rel<=0.10"},
                {"quantity": "utilization", "predicted": 0.7, "measured": 0.390625,
                 "ok": True, "gate": "<=1"},
            ],
        },
    },
    "autoscale": {
        "offered": 1370,
        "attainment": 0.9102189781021898,
        "mean_replicas": 1.4997751571165172,
        "max_replicas": 3,
        "scale_events": 4,
        "scale_ups": 2,
        "scale_downs": 2,
        "measured_cost_usd": 0.0033343330846116216,
    },
}


def _open_loop_summary(traffic) -> dict:
    (plan, result, recon), (auto_result, autoscaler), _ = traffic
    return {
        "slo_s": SLO_S,
        "planned": {
            "fleet": plan.describe(),
            "offered": result.offered,
            "served": result.served,
            "rejected": result.rejected,
            "timed_out": result.timed_out,
            "attainment": result.attainment,
            "admitted_attainment": result.admitted_attainment,
            "attainment_target": plan.attainment_target,
            "predicted_cost_per_hour": plan.predicted_cost_per_hour,
            "measured_cost_per_hour": result.measured_cost_per_hour,
            "reconciled": recon.reconciled,
            "reconciliation": recon.to_json(),
        },
        "autoscale": {
            "offered": auto_result.offered,
            "attainment": auto_result.attainment,
            "mean_replicas": auto_result.mean_replicas,
            "max_replicas": auto_result.max_replicas,
            "scale_events": auto_result.scale_events,
            "scale_ups": sum(1 for e in autoscaler.events if e.action == "up"),
            "scale_downs": sum(1 for e in autoscaler.events if e.action == "down"),
            "measured_cost_usd": auto_result.measured_cost_usd,
        },
    }


def test_open_loop_summary_is_pinned(traffic):
    summary = _open_loop_summary(traffic)
    assert summary == OPEN_LOOP_PINS
    p, a = summary["planned"], summary["autoscale"]
    assert p["reconciled"] and p["admitted_attainment"] >= p["attainment_target"]
    assert a["scale_ups"] > 0 and a["scale_downs"] > 0
    assert 1.0 <= a["mean_replicas"] <= a["max_replicas"]


class TestUserExtrapolation:
    def test_sweep_covers_grid_and_scales_monotonically(self, traffic):
        rows = traffic[2]
        assert [users for users, _, _ in rows] == USER_GRID
        costs = [plan.predicted_cost_per_hour for _, _, plan in rows]
        assert costs == sorted(costs)
        # The largest population needs a real fleet, not one replica.
        assert rows[-1][2].n_replicas > 1


class TestRendering:
    def test_render_is_complete(self, traffic):
        text = render_traffic(traffic)
        assert "-> reconciled" in text
        assert "Scale decisions" in text
        assert "virtual users" in text
