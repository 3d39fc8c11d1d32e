"""Closed-form mesh traffic model vs the engines' measured telemetry.

The measured table below was read off the telemetry bus by running
``run_mesh_axes`` (2 steps, 4 micro slots, batch 2) — the same numbers
``python -m repro.experiments mesh`` prints. The analytic model must
reproduce the tensor- and data-axis rows *exactly* (SimComm is exact
data movement) and the pipeline rows here happen to be exact too; the
live end-to-end reconciliation lives in
``tests/test_experiments/test_mesh_crossover.py``.
"""

from __future__ import annotations

import pytest

from repro.core.config import get_vit_config
from repro.experiments.mesh_axes import BATCH, MICRO_SLOTS, PROXY, STEPS
from repro.mesh.spec import MeshSpec
from repro.perf.compute_model import workload_units
from repro.perf.mesh_model import (
    dp_traffic_per_step,
    pp_traffic_per_micro,
    predict_mesh_traffic,
    tp_gather_values,
    tp_shardable_fraction,
)

#: (label, spec, strategy) -> {axis: (bytes, calls)} measured at
#: STEPS=2 / MICRO_SLOTS=4 / BATCH=2.
MEASURED = [
    ("dp4 / ddp", MeshSpec(dp=4), "ddp", {"dp": (900096, 2)}),
    ("dp4 / fsdp", MeshSpec(dp=4), "full_shard", {"dp": (2700288, 30)}),
    ("tp4", MeshSpec(tp=4), "ddp", {"tp": (950272, 256), "dp": (900096, 2)}),
    (
        "pp4 gpipe",
        MeshSpec(pp=4, schedule="gpipe"),
        "ddp",
        {"pp": (106496, 48), "dp": (900096, 2)},
    ),
    (
        "pp4 1f1b",
        MeshSpec(pp=4, schedule="1f1b"),
        "ddp",
        {"pp": (106496, 48), "dp": (900096, 2)},
    ),
    (
        "pp2xdp2xtp2",
        MeshSpec(pp=2, dp=2, tp=2, schedule="1f1b"),
        "full_shard",
        {"tp": (950272, 256), "pp": (40960, 16), "dp": (4500480, 50)},
    ),
]


@pytest.mark.parametrize(
    "label,spec,strategy,expected", MEASURED, ids=[m[0] for m in MEASURED]
)
def test_predictions_match_measured_table(label, spec, strategy, expected):
    pred = predict_mesh_traffic(
        PROXY, spec, strategy, steps=STEPS, batch=BATCH, micro_slots=MICRO_SLOTS
    )
    for axis in ("tp", "pp", "dp"):
        want_bytes, want_calls = expected.get(axis, (0, 0))
        got = pred.axis(axis)
        assert got.bytes == want_bytes, f"{label}/{axis} bytes"
        assert got.calls == want_calls, f"{label}/{axis} calls"


def test_axis_accessor_rejects_unknown_axis():
    pred = predict_mesh_traffic(PROXY, MeshSpec(dp=4), "ddp", steps=1, batch=2)
    with pytest.raises(KeyError):
        pred.axis("ep")


def test_micro_slot_divisibility_validated():
    with pytest.raises(ValueError, match="micro slots"):
        predict_mesh_traffic(
            PROXY, MeshSpec(dp=3), "ddp", steps=1, batch=2, micro_slots=4
        )


def test_pp_traffic_requires_mae_workload():
    with pytest.raises(TypeError):
        pp_traffic_per_micro(get_vit_config("vit-base"), pp=2, batch=2)


def test_dp_ddp_books_one_all_reduce_even_unsharded():
    # The engines publish the gradient all-reduce even at dp=1.
    traffic = dp_traffic_per_step(PROXY, MeshSpec(dp=1), "ddp", grad_accum_steps=4)
    assert traffic.calls == 1
    assert traffic.bytes > 0


def test_unit_profiles_align_with_workload_units():
    from repro.hardware.frontier import frontier_machine

    units = workload_units(PROXY, 2, frontier_machine(1).gpu)
    # Root unit (embeddings/norms/heads) is not tp-sharded.
    assert tp_gather_values(units[0].row, 2) == ((), ())
    assert units[0].row.gemm_params == 0
    # Every block unit gathers 4 GEMM outputs each way.
    for u in units[1:]:
        fwd, bwd = tp_gather_values(u.row, 2)
        assert len(fwd) == 4
        assert len(bwd) == 4
        assert 0.0 < u.row.gemm_params / u.row.params <= 1.0
        assert u.row.activation_values(2) > 0


def test_tp_shardable_fraction_bounds():
    frac = tp_shardable_fraction(PROXY)
    assert 0.0 < frac < 1.0
    # Sharded GEMMs dominate transformer parameters.
    assert frac > 0.5
