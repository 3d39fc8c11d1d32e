"""Pipeline schedule properties: partition, dependencies, liveness."""

from __future__ import annotations

import pytest

from repro.mesh.pipeline import (
    gpipe_schedule,
    one_f_one_b_schedule,
    partition_stages,
    schedule_actions,
)


def test_partition_stages_contiguous_cover():
    bounds = partition_stages(7, 3)
    assert bounds == [(0, 3), (3, 5), (5, 7)]
    assert bounds[0][0] == 0 and bounds[-1][1] == 7
    assert all(b[1] == n[0] for b, n in zip(bounds, bounds[1:]))


def test_partition_stages_rejects_bad_pp():
    with pytest.raises(ValueError, match="at most pp=3"):
        partition_stages(3, 4)
    with pytest.raises(ValueError, match="pp must be >= 1"):
        partition_stages(3, 0)


@pytest.mark.parametrize("name", ["gpipe", "1f1b"])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("pp", [1, 2, 3, 4])
def test_schedules_are_valid_over_the_grid(name, m, pp):
    # schedule_actions runs the dependency/exactly-once checker itself;
    # a violation raises, so materializing is the assertion.
    actions = schedule_actions(name, m, pp)
    assert len(actions) == 2 * m * pp


def test_unknown_schedule_name_rejected():
    with pytest.raises(ValueError, match="unknown pipeline schedule"):
        schedule_actions("interleaved", 2, 2)


def test_gpipe_runs_all_forwards_before_any_backward():
    actions = list(gpipe_schedule(4, 3))
    first_bwd = next(i for i, a in enumerate(actions) if a[0] == "bwd")
    assert all(a[0] == "fwd" for a in actions[:first_bwd])
    assert sum(a[0] == "fwd" for a in actions) == 12


def _peak_live_activations(actions, pp):
    """Max in-flight (forwarded, not yet backwarded) micros per stage."""
    live = [0] * pp
    peak = [0] * pp
    for kind, s, _ in actions:
        if kind == "fwd":
            live[s] += 1
            peak[s] = max(peak[s], live[s])
        else:
            live[s] -= 1
    assert all(v == 0 for v in live)
    return peak


@pytest.mark.parametrize("m,pp", [(8, 4), (6, 3), (8, 2)])
def test_1f1b_keeps_fewer_activations_live_than_gpipe(m, pp):
    gpipe_peak = _peak_live_activations(list(gpipe_schedule(m, pp)), pp)
    ofob_peak = _peak_live_activations(list(one_f_one_b_schedule(m, pp)), pp)
    # GPipe stage 0 holds every micro; 1F1B holds at most pp.
    assert gpipe_peak[0] == m
    assert max(ofob_peak) <= pp
    assert ofob_peak[0] < gpipe_peak[0]


def test_1f1b_backward_order_is_micro_order_per_stage():
    actions = list(one_f_one_b_schedule(5, 3))
    for s in range(3):
        bwds = [j for kind, stage, j in actions if kind == "bwd" and stage == s]
        assert bwds == sorted(bwds)
