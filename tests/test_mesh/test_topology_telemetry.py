"""Mesh topology records, per-axis telemetry, and trainer integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.collectives import SimComm
from repro.comm.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.comm.world import World
from repro.core.engine import make_engine
from repro.core.trainer import MAEPretrainer
from repro.elastic.errors import ElasticCompatibilityError
from repro.elastic.reshard import TopologySpec
from repro.mesh.spec import MeshSpec
from repro.telemetry import RecordingSink, RunReport, TelemetryBus

from .helpers import (
    TINY,
    assert_states_equal,
    build_model,
    mesh_engine,
    oracle_engine,
    run_steps,
    tiny_micros,
    mae_step,
)


# -- topology records --------------------------------------------------------


def test_topology_round_trips_through_topology_spec():
    eng = mesh_engine(MeshSpec(pp=2, dp=2, tp=2, schedule="1f1b"), "full_shard")
    try:
        topo = eng.topology()
    finally:
        eng.close()
    spec = TopologySpec.from_dict(topo)
    assert spec.kind == "mesh"
    assert spec.mesh == {"pp": 2, "dp": 2, "tp": 2, "schedule": "1f1b"}
    assert spec.shard_size == 2  # full_shard shards over the dp axis
    assert "mesh=pp2xdp2xtp2" in spec.describe()
    assert spec.to_dict()["mesh"] == topo["mesh"]
    assert TopologySpec.from_dict(spec.to_dict()) == spec


def test_legacy_topology_dict_defaults_to_no_mesh():
    spec = TopologySpec.from_dict(
        {
            "kind": "ddp",
            "strategy": "ddp",
            "world_size": 2,
            "ranks_per_node": 2,
            "shard_size": None,
            "grad_accum_steps": 1,
            "layout": {"total": 2, "chunk": 2},
            "precision": "fp32",
            "backend": "inline",
        }
    )
    assert spec.mesh is None
    assert spec.to_dict()["mesh"] is None
    assert "mesh=" not in spec.describe()


def test_same_shape_is_false_across_mesh_changes():
    a = mesh_engine(MeshSpec(pp=2, dp=2, schedule="gpipe"), "ddp")
    b = mesh_engine(MeshSpec(pp=2, dp=2, schedule="1f1b"), "ddp")
    try:
        sa = TopologySpec.from_dict(a.topology())
        sb = TopologySpec.from_dict(b.topology())
    finally:
        a.close()
        b.close()
    assert not sa.same_shape(sb)
    assert sa.same_shape(sa)


# -- checkpoint round-trip ---------------------------------------------------


def test_state_dict_round_trip_resumes_the_trajectory():
    spec = MeshSpec(pp=2, dp=2, tp=2)
    ref = mesh_engine(spec, "full_shard")
    ref.train_step(tiny_micros(2, seed=50), mae_step)
    snapshot = ref.state_dict()

    # A fresh engine with *different* weights must land on ref's exact
    # trajectory after loading the snapshot.
    fresh = mesh_engine(spec, "full_shard", seed=11)
    fresh.load_state_dict(snapshot)
    assert fresh.step_count == ref.step_count
    try:
        micros = tiny_micros(2, seed=51)
        loss_ref = ref.train_step(list(micros), mae_step)
        loss_fresh = fresh.train_step(list(micros), mae_step)
        assert loss_ref == loss_fresh
        assert_states_equal(
            dict(ref.model.state_dict()), dict(fresh.model.state_dict())
        )
    finally:
        ref.close()
        fresh.close()


# -- per-axis telemetry ------------------------------------------------------


def test_comm_spans_are_tagged_with_their_mesh_axis():
    bus = TelemetryBus(RecordingSink())
    eng = mesh_engine(
        MeshSpec(pp=2, dp=2, tp=2), "ddp", telemetry=bus
    )
    try:
        eng.train_step(tiny_micros(2, seed=50), mae_step)
    finally:
        eng.close()
    comm = [e for e in bus.sink.events if e.name.startswith("comm.")]
    by_axis = {}
    for e in comm:
        by_axis.setdefault(e.attrs.get("axis"), set()).add(e.name)
    # tp row-gathers, pp boundary sends, dp gradient reduction — each
    # on its own tagged axis.
    assert "comm.all_gather" in by_axis["tp"]
    assert "comm.send" in by_axis["pp"]
    assert "comm.all_reduce" in by_axis["dp"]
    # Every comm span on this mesh names its axis.
    assert None not in by_axis
    # Spans carry wire bytes for the roofline reports.
    assert all(e.attrs.get("bytes", 0) > 0 for e in comm)


@pytest.mark.parametrize("traced", [False, True])
def test_a_tp_gather_retries_like_every_collective(traced):
    """A transient fault on a tp all-gather is retried under the
    engine's policy, booked on its stats and, with a bus, as the same
    ``comm.retries`` / ``comm.backoff_s`` counters a dp collective
    books; the step is bit-identical to the unfaulted one."""
    plan = FaultPlan([FaultSpec("all_gather", "transient", call_index=6)])
    bus = TelemetryBus(RecordingSink()) if traced else None
    eng = mesh_engine(
        MeshSpec(tp=2), "ddp", k=2, comm=SimComm(fault_plan=plan), telemetry=bus
    )
    losses, state = run_steps(eng, 2)
    assert plan.pending() == 0
    assert eng.comm.stats.total_retries == 1
    want_losses, want_state = run_steps(mesh_engine(MeshSpec(tp=2), "ddp", k=2), 2)
    assert losses == want_losses
    assert_states_equal(state, want_state)
    if traced:
        counters = {
            e.name: (e.value, e.attrs)
            for e in bus.sink.events
            if e.name in ("comm.retries", "comm.backoff_s")
        }
        assert counters == {
            "comm.retries": (1, {"op": "all_gather"}),
            "comm.backoff_s": (RetryPolicy().delay(1), {"op": "all_gather"}),
        }


def test_full_shard_reduce_scatter_spans_ride_the_dp_axis():
    bus = TelemetryBus(RecordingSink())
    eng = mesh_engine(MeshSpec(dp=2), "full_shard", telemetry=bus)
    try:
        eng.train_step(tiny_micros(2, seed=50), mae_step)
    finally:
        eng.close()
    names = {
        e.name
        for e in bus.sink.events
        if e.attrs.get("axis") == "dp" and e.name.startswith("comm.")
    }
    assert {"comm.all_gather", "comm.reduce_scatter"} <= names


def test_send_accounting_matches_across_backends():
    # The process backend books stage-boundary traffic analytically;
    # the ledger must agree byte-for-byte with the inline schedule's
    # real sends.
    spec = MeshSpec(pp=2, dp=2)
    ledgers = {}
    for backend in ("inline", "process"):
        eng = mesh_engine(spec, "ddp", backend=backend)
        try:
            eng.train_step(tiny_micros(2, seed=50), mae_step)
            stats = eng.comm.stats
            ledgers[backend] = (
                stats.calls_by_op.get("send", 0),
                stats.bytes_by_op.get("send", 0.0),
            )
        finally:
            eng.close()
    assert ledgers["inline"] == ledgers["process"]
    assert ledgers["inline"][0] > 0


def test_per_axis_bytes_and_calls_match_across_backends():
    # Inline stages run each micro's forward once, like the depth-first
    # workers, so the tp gathers a worker books on its own SimComm (and
    # fans in through the bus) equal the inline ledger's, call for call.
    spec = MeshSpec(pp=2, dp=2, tp=2, schedule="1f1b")
    axes = {}
    for backend in ("inline", "process"):
        bus = TelemetryBus(RecordingSink())
        eng = mesh_engine(spec, "full_shard", k=2, backend=backend, telemetry=bus)
        try:
            eng.train_step(tiny_micros(4, seed=50), mae_step)
        finally:
            eng.close()
        report = RunReport.from_events(bus.sink.events)
        axes[backend] = {
            axis: (report.axis_bytes(axis), report.axis_calls(axis))
            for axis in ("tp", "pp", "dp")
        }
    assert axes["inline"] == axes["process"]
    # 4 micros x 4 blocks x 8 gathers: one forward + one backward each.
    assert axes["inline"]["tp"][1] == 4 * 4 * 8


def test_bus_shared_down_by_the_trainer_reaches_the_tp_axis():
    # The trainer promises an explicit bus "is shared down
    # into the engine": the tp context must see it too, whichever route
    # supplied the bus.
    images = np.random.default_rng(13).standard_normal((8, 3, 16, 16))
    axes = {}
    for route in ("config", "trainer"):
        bus = TelemetryBus(RecordingSink())
        eng = mesh_engine(
            MeshSpec(dp=2, tp=2), "ddp",
            telemetry=bus if route == "config" else None,
        )
        try:
            MAEPretrainer(
                eng, images, global_batch=4, seed=0,
                telemetry=bus if route == "trainer" else None,
            ).run(1)
        finally:
            eng.close()
        assert eng.telemetry is bus
        report = RunReport.from_events(bus.sink.events)
        axes[route] = {
            axis: (report.axis_bytes(axis), report.axis_calls(axis))
            for axis in ("tp", "dp")
        }
        untagged = sum(
            e.attrs.get("bytes", 0.0)
            for e in bus.sink.events
            if e.kind == "span" and e.name.startswith("comm.")
            and "axis" not in e.attrs
        )
        tagged = sum(report.axis_bytes(axis) for axis in ("tp", "pp", "dp"))
        assert tagged + untagged == report.span_bytes("comm.")
    assert axes["trainer"] == axes["config"]
    assert axes["config"]["tp"][0] > 0 and axes["config"]["dp"][0] > 0


# -- trainer integration -----------------------------------------------------


def _corpus(n: int = 8, seed: int = 13) -> np.ndarray:
    enc = TINY.encoder
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (n, enc.in_chans, enc.img_size, enc.img_size)
    ).astype(np.float64)


def test_pretrainer_on_a_mesh_matches_the_oracle_trainer():
    images = _corpus()
    # global batch is divided over dp x k micro slots, NOT the world
    # size — a pp2 x dp2 x tp2 mesh consumes micros like a 2-rank world.
    mesh = mesh_engine(MeshSpec(pp=2, dp=2, tp=2), "ddp")
    oracle = oracle_engine(2)
    try:
        res_mesh = MAEPretrainer(mesh, images, global_batch=4, seed=0).run(2)
        res_oracle = MAEPretrainer(oracle, images, global_batch=4, seed=0).run(2)
        np.testing.assert_array_equal(res_mesh.losses, res_oracle.losses)
        assert_states_equal(
            dict(mesh.model.state_dict()), dict(oracle.model.state_dict())
        )
    finally:
        mesh.close()
        oracle.close()


def test_pretrainer_global_batch_divisibility_uses_dp_not_world():
    images = _corpus()
    eng = mesh_engine(MeshSpec(pp=2, dp=2, tp=2), "ddp")
    try:
        # world=8 but only dp=2 micro slots: an odd batch is not
        # divisible by dp (it WOULD have been caught by a world-size
        # rule too, so the positive case below is the sharp edge).
        with pytest.raises(ValueError, match="not divisible"):
            MAEPretrainer(eng, images, global_batch=3, seed=0)
        MAEPretrainer(eng, images, global_batch=4, seed=0)
    finally:
        eng.close()


def _ddp_snapshot(images, checkpoint_dir, steps):
    """Train a plain DDP W=2 run (no mesh), snapshotting every step when
    given a directory; returns its losses and final parameters."""
    eng = make_engine(build_model(7), "ddp", world=World(2))
    trainer = MAEPretrainer(
        eng, images, global_batch=4, seed=0,
        checkpoint_dir=checkpoint_dir, save_every=1 if checkpoint_dir else 0,
    )
    losses = trainer.run(steps).losses
    return losses, {k: np.array(v) for k, v in eng.model.state_dict().items()}


def test_ddp_snapshot_resumes_onto_a_mesh_bit_exactly(tmp_path):
    # A plain DDP snapshot (mesh=None) resumes on a dp=2 mesh: same
    # reduction layout, so resume reshards and continues bit-exact.
    images = _corpus()
    golden_losses, golden_state = _ddp_snapshot(images, None, 3)
    _ddp_snapshot(images, str(tmp_path), 1)
    eng = mesh_engine(MeshSpec(dp=2), "ddp", seed=99)
    try:
        trainer = MAEPretrainer(
            eng, images, global_batch=4, seed=0, checkpoint_dir=str(tmp_path)
        )
        assert trainer.resume(3).losses == golden_losses
        assert_states_equal(dict(eng.model.state_dict()), golden_state)
    finally:
        eng.close()


def test_snapshot_topology_check_refuses_cross_mesh_resume(tmp_path):
    # dp=2 x k=2 reduces 4 micros where the DDP W=2 snapshot reduced 2:
    # the layout differs, so no reshard keeps the trajectory.
    images = _corpus()
    _ddp_snapshot(images, str(tmp_path), 1)
    eng = mesh_engine(MeshSpec(dp=2), "ddp", k=2)
    try:
        trainer = MAEPretrainer(
            eng, images, global_batch=4, seed=0, checkpoint_dir=str(tmp_path)
        )
        with pytest.raises(ElasticCompatibilityError, match="cannot reshard"):
            trainer.resume(3)
    finally:
        eng.close()
