"""Resize chaos campaign: preempt, resize, resume — stay bit-exact.

One oracle run (FULL_SHARD on a 16-rank world, inline, uninterrupted)
against one chaos lifecycle: a seeded :class:`ResizeScheduler` preempts
the job at random steps and requeues it into a rotating sequence of
allocations — the paper-motivated FULL_SHARD 16 → HYBRID 8 shrink first
(the two reduction stages fold to one), then random compatible worlds
across strategies and both execution backends. Every segment resumes by
resharding the previous segment's final snapshot.

The campaign passes iff the stitched loss history and the final
parameters are **bit-identical** to the oracle: elasticity must be
invisible to the trajectory. ``main()`` writes the summary to
``benchmarks/ELASTIC_campaign.json`` for the regression gate.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np

from repro.elastic.layout import ReductionLayout
from repro.elastic.requeue import (
    Allocation,
    RequeueDriver,
    ResizeScheduler,
)

__all__ = ["run_resize_campaign", "main"]

#: The world the oracle trains in; every resize must continue its layout.
ORACLE_ALLOCATION = Allocation(strategy="FULL_SHARD", world_size=16)

#: The paper-motivated first resize: 16 ranks fully sharded shrink to 8
#: ranks of folded HYBRID (single replica group), accumulation depth 2
#: keeping the global batch — and the reduction layout — unchanged.
FIRST_RESIZE = Allocation(
    strategy="HYBRID_SHARD", world_size=8, grad_accum_steps=2, shard_size=8
)

#: A guaranteed process-backend segment (each rank an OS process over
#: shared memory); fp32 numerics are backend-identical.
PROCESS_RESIZE = Allocation(
    strategy="FULL_SHARD", world_size=4, grad_accum_steps=4, backend="process"
)


def _tiny_mae_model(init_seed: int):
    from repro.core.config import MAEConfig, ViTConfig
    from repro.models.mae import MaskedAutoencoder

    cfg = MAEConfig(
        encoder=ViTConfig(
            name="elastic-tiny",
            width=16,
            depth=2,
            mlp=32,
            heads=4,
            patch=8,
            img_size=16,
        ),
        dec_width=16,
        dec_depth=1,
        dec_heads=4,
        mask_ratio=0.5,
    )
    return MaskedAutoencoder(cfg, rng=np.random.default_rng(init_seed))


def run_resize_campaign(
    seed: int = 0,
    *,
    total_steps: int = 8,
    n_resizes: int = 5,
    global_batch: int = 32,
    checkpoint_dir: str | None = None,
    init_seed: int = 7,
    data_seed: int = 9,
    telemetry=None,
) -> dict:
    """Run the campaign; returns a JSON-serializable summary.

    ``checkpoint_dir`` defaults to a fresh temporary directory (removed
    by the OS eventually; pass one explicitly to inspect snapshots).
    The summary's ``bit_identical`` is the pass/fail verdict: stitched
    losses and final parameters exactly equal to the oracle's.
    """
    import tempfile

    if checkpoint_dir is None:
        checkpoint_dir = tempfile.mkdtemp(prefix="elastic-campaign-")

    layout = ReductionLayout(
        total=ORACLE_ALLOCATION.world_size * ORACLE_ALLOCATION.grad_accum_steps,
        chunk=ORACLE_ALLOCATION.world_size * ORACLE_ALLOCATION.grad_accum_steps,
    )
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, 424242]))
    )
    images = rng.standard_normal((2 * global_batch, 3, 16, 16))

    t0 = perf_counter()

    # Oracle: uninterrupted FULL_SHARD 16, inline.
    from repro.core.trainer import MAEPretrainer

    oracle_engine = ORACLE_ALLOCATION.build(_tiny_mae_model(init_seed), layout)
    oracle = MAEPretrainer(
        oracle_engine, images, global_batch=global_batch, seed=data_seed
    )
    oracle_result = oracle.run(total_steps)
    oracle_params = {
        name: p.data.copy() for name, p in oracle_engine.model.named_parameters()
    }
    oracle_engine.close()

    # Chaos lifecycle: preempt at random steps, resize, reshard, resume.
    scheduler = ResizeScheduler(
        layout,
        total_steps,
        seed=seed,
        n_resizes=n_resizes,
        backends=("inline", "process"),
        forced=(FIRST_RESIZE, PROCESS_RESIZE),
    )

    def make_trainer(alloc: Allocation, token):
        engine = alloc.build(
            _tiny_mae_model(init_seed), layout, telemetry=telemetry
        )
        return MAEPretrainer(
            engine,
            images,
            global_batch=global_batch,
            seed=data_seed,
            checkpoint_dir=checkpoint_dir,
            save_every=1,
            keep=3,
            preemption=token,
            telemetry=telemetry,
        )

    driver = RequeueDriver(make_trainer, scheduler, telemetry=telemetry)
    report = driver.train(total_steps, ORACLE_ALLOCATION)

    # Verdict: the resized lifecycle must be invisible to the trajectory.
    losses_equal = report.losses == oracle_result.losses
    final = _tiny_mae_model(init_seed)
    verify_engine = ORACLE_ALLOCATION.build(final, layout)
    verify = MAEPretrainer(
        verify_engine,
        images,
        global_batch=global_batch,
        seed=data_seed,
        checkpoint_dir=checkpoint_dir,
    )
    # The final segment snapshotted at total_steps (save_every=1), so this
    # pure-reshard load recovers the lifecycle's *final* state on the
    # oracle topology without retraining a single step.
    verify.resume(total_steps)
    max_diff = 0.0
    params_equal = True
    for name, p in verify_engine.model.named_parameters():
        diff = float(np.max(np.abs(p.data - oracle_params[name])))
        max_diff = max(max_diff, diff)
        if diff != 0.0:
            params_equal = False
    verify_engine.close()

    return {
        "seed": seed,
        "total_steps": total_steps,
        "global_batch": global_batch,
        "layout": {"total": layout.total, "chunk": layout.chunk},
        "oracle": ORACLE_ALLOCATION.describe(),
        "requeues": report.requeues,
        "transitions": report.transitions,
        "backends_exercised": sorted(
            {a.backend for a in [ORACLE_ALLOCATION, *scheduler.allocations]}
        ),
        "losses_bit_equal": losses_equal,
        "max_abs_param_diff": max_diff,
        "bit_identical": bool(losses_equal and params_equal),
        "wall_s": round(perf_counter() - t0, 3),
    }


def _echo(text: str) -> None:
    """CLI output helper (library code never calls bare print())."""
    sys.stdout.write(text + "\n")


def main(out_path: str = "benchmarks/ELASTIC_campaign.json") -> dict:
    """CLI entry: run the campaign and write the summary artifact."""
    summary = run_resize_campaign()
    with open(out_path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    status = "BIT-IDENTICAL" if summary["bit_identical"] else "DIVERGED"
    _echo(
        f"resize campaign: {summary['requeues']} requeues over "
        f"{summary['total_steps']} steps -> {status} "
        f"(max |dp| = {summary['max_abs_param_diff']:.1e})"
    )
    for t in summary["transitions"]:
        _echo(f"  step {t['step']:>3}: {t['from']} -> {t['to']}")
    return summary


if __name__ == "__main__":
    main()
