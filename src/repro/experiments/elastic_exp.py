"""Elastic resize campaign: preempt, resize, resume — the trajectory
must not notice.

Runs :func:`repro.elastic.campaign.run_resize_campaign` at its defaults
(seed 0): a FULL_SHARD 16 run is preempted five times, first into the
paper-motivated HYBRID 8 fold, then into seeded compatible allocations
on the inline and process backends, and every segment resumes by
resharding the previous one's snapshot. The stitched trajectory is
compared with the uninterrupted oracle bit for bit.
"""

from __future__ import annotations

from repro.elastic.campaign import run_resize_campaign

__all__ = ["run_elastic", "render_elastic", "claims_elastic"]

#: Requeues the default campaign covers.
MIN_REQUEUES = 5


def run_elastic() -> dict:
    """The default campaign (its snapshots are removed before it returns)."""
    return run_resize_campaign()


def render_elastic(summary: dict) -> str:
    """The verdict plus the chain of allocations the run went through."""
    verdict = "bit-identical" if summary["bit_identical"] else "DIVERGED"
    lines = [
        f"Resize campaign from {summary['oracle']}: {summary['requeues']} requeues "
        f"over {summary['total_steps']} steps -> {verdict} "
        f"(max |dp| = {summary['max_abs_param_diff']:.1e})"
    ]
    lines += [
        f"  step {t['step']:>3}: {t['from']} -> {t['to']}" for t in summary["transitions"]
    ]
    return "\n".join(lines)


def claims_elastic(summary: dict) -> list[tuple[str, bool]]:
    """Elasticity is invisible to the trajectory, over both backends."""
    return [
        ("the resized run's losses and final parameters are bit-identical to the "
         "uninterrupted oracle's", summary["bit_identical"]),
        (f"the campaign requeues at least {MIN_REQUEUES} times",
         summary["requeues"] >= MIN_REQUEUES),
        ("segments run on both the inline and the process backend",
         summary["backends_exercised"] == ["inline", "process"]),
    ]
