"""Resize chaos campaign: preempt/resize mid-run, stay bit-exact.

Runs the full scheduler-driven campaign (the paper's elastic headline:
FULL_SHARD 16 preempted into HYBRID 8, then random compatible worlds on
inline *and* process backends) and asserts fp32 trajectory identity with
the uninterrupted oracle. Registered under the ``chaos`` marker next to
the existing fault-injection suites.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.elastic.campaign import run_resize_campaign
from repro.experiments.elastic_exp import claims_elastic, render_elastic
from repro.telemetry.bus import RecordingSink, TelemetryBus

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One full default campaign (seed 0), shared across assertions."""
    sink = RecordingSink()
    summary = run_resize_campaign(
        seed=0,
        checkpoint_dir=str(tmp_path_factory.mktemp("elastic-chaos")),
        telemetry=TelemetryBus(sink),
    )
    return summary, sink


class TestDefaultCampaign:
    def test_bit_identical_with_oracle(self, campaign):
        summary, _ = campaign
        assert summary["bit_identical"], summary
        assert summary["losses_bit_equal"]
        assert summary["max_abs_param_diff"] == 0.0

    def test_acceptance_shape(self, campaign):
        # ISSUE acceptance: FULL_SHARD 16 → HYBRID 8 plus ≥ 4 other
        # transitions, with both backends exercised.
        summary, _ = campaign
        assert summary["requeues"] >= 5
        assert summary["oracle"].startswith("FULL_SHARD W=16")
        first = summary["transitions"][0]
        assert first["from"].startswith("FULL_SHARD W=16")
        assert first["to"].startswith("HYBRID_SHARD W=8")
        assert sorted(summary["backends_exercised"]) == ["inline", "process"]

    def test_every_transition_checkpointed(self, campaign):
        summary, _ = campaign
        steps = [t["step"] for t in summary["transitions"]]
        assert steps == sorted(steps)
        assert all(t["checkpoint"] for t in summary["transitions"])

    def test_telemetry_counts_the_lifecycle(self, campaign):
        summary, sink = campaign
        names = [e.name for e in sink.events]
        assert names.count("elastic.requeues") == summary["requeues"]
        assert names.count("elastic.preemptions") == summary["requeues"]
        segments = [n for n in names if n == "elastic.segment"]
        # One span per scheduled segment (requeues + the final one).
        assert len(segments) == summary["requeues"] + 1


    def test_experiment_claims_hold_and_flip(self, campaign):
        summary, _ = campaign
        assert [holds for _, holds in claims_elastic(summary)] == [True] * 3
        assert "5 requeues over 8 steps -> bit-identical" in render_elastic(summary)
        planted = {**summary, "bit_identical": False, "backends_exercised": ["inline"]}
        assert [holds for _, holds in claims_elastic(planted)] == [False, True, False]
        assert "DIVERGED" in render_elastic(planted)


def test_alternate_seed_campaign(tmp_path):
    """A different schedule/allocation draw stays bit-exact too."""
    summary = run_resize_campaign(
        seed=1,
        total_steps=6,
        n_resizes=3,
        checkpoint_dir=str(tmp_path),
    )
    assert summary["bit_identical"], summary
    assert summary["requeues"] == 3


def test_default_snapshot_directory_is_removed_before_return(tmp_path, monkeypatch):
    """Without ``checkpoint_dir`` the campaign leaves no directory behind."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    summary = run_resize_campaign(total_steps=4, n_resizes=2)
    assert summary["bit_identical"], summary
    assert list(tmp_path.iterdir()) == []
