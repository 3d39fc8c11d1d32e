"""Cross-module integration tests.

These tie the executable engine to the analytical models: the bytes the
engine actually moves must match the closed-form ring formulas the
performance simulator prices, and the optimizer state the engine
allocates must match the memory model's sharding arithmetic.
"""

from collections import Counter

import numpy as np
import pytest

from repro.comm.world import World
from repro.core.config import count_mae_params, get_mae_config
from repro.core.engine import make_engine
from repro.core.sharding import STRATEGY_TABLE, ShardingStrategy
from repro.core.trainer import MAEPretrainer
from repro.hardware.frontier import frontier_machine
from repro.models.mae import MaskedAutoencoder
from repro.perf.compute_model import mae_workload_units
from repro.perf.mesh_model import dp_traffic_by_op, dp_unit_numels
from repro.perf.schedule import build_step_schedule
from repro.telemetry import RecordingSink, TelemetryBus

CFG = get_mae_config("proxy-base")


def _run_one_step(strategy, world_size=4, shard_size=None, ranks_per_node=4):
    model = MaskedAutoencoder(CFG, rng=np.random.default_rng(0))
    world = World(world_size, ranks_per_node=ranks_per_node)
    engine = make_engine(model, strategy, world=world, shard_size=shard_size)
    images = np.random.default_rng(1).standard_normal((16, 3, 32, 32))
    MAEPretrainer(engine, images, global_batch=8, seed=0).run(1)
    return engine


class TestWireBytesMatchClosedForm:
    """Engine-measured wire bytes == analytical ring formulas."""

    def test_no_shard_allreduce_bytes(self):
        engine = _run_one_step(ShardingStrategy.NO_SHARD)
        g = 4
        total_padded = sum(u.plan.padded_numel for u in engine.units)
        nbytes = total_padded * 8  # float64
        expected = 2 * (g - 1) / g * nbytes * g  # per rank x ranks
        assert engine.comm.stats.bytes_by_op["all_reduce"] == pytest.approx(expected)

    def test_full_shard_bytes(self):
        engine = _run_one_step(ShardingStrategy.FULL_SHARD)
        g = 4
        nbytes = sum(u.plan.padded_numel for u in engine.units) * 8
        stats = engine.comm.stats
        # Two all-gathers (fwd + bwd regather) and one reduce-scatter.
        assert stats.bytes_by_op["all_gather"] == pytest.approx(
            2 * (g - 1) / g * nbytes * g
        )
        assert stats.bytes_by_op["reduce_scatter"] == pytest.approx(
            (g - 1) / g * nbytes * g
        )

    def test_hybrid_replica_bytes_are_sharded(self):
        engine = _run_one_step(
            ShardingStrategy.HYBRID_SHARD, world_size=4, shard_size=2
        )
        nbytes = sum(u.plan.padded_numel for u in engine.units) * 8
        stats = engine.comm.stats
        # Replica all-reduce moves only the *shard* (half the bytes),
        # but happens in 2 groups of 2 ranks.
        n_groups, g = 2, 2
        shard_bytes = nbytes / 2
        expected_ar = n_groups * 2 * (g - 1) / g * shard_bytes * g
        assert stats.bytes_by_op["all_reduce"] == pytest.approx(expected_ar)

    def test_sgo_moves_fewer_bytes_than_full(self):
        full = _run_one_step(ShardingStrategy.FULL_SHARD)
        sgo = _run_one_step(ShardingStrategy.SHARD_GRAD_OP)
        assert sgo.comm.stats.total_bytes < full.comm.stats.total_bytes


#: Every row of the strategy table, HYBRID at each divisor of World(4).
ROWS = [
    (ShardingStrategy.DDP, None),
    (ShardingStrategy.NO_SHARD, None),
    (ShardingStrategy.FULL_SHARD, None),
    (ShardingStrategy.SHARD_GRAD_OP, None),
    (ShardingStrategy.HYBRID_SHARD, 1),
    (ShardingStrategy.HYBRID_SHARD, 2),
    (ShardingStrategy.HYBRID_SHARD, 4),
]
ROW_IDS = ["DDP", "NO_SHARD", "FULL_SHARD", "SHARD_GRAD_OP", "HYBRID_1", "HYBRID_2", "HYBRID_4"]


class TestPredictedTrafficEqualsBooked:
    """What the row says a step moves is what the engine books and what
    the step schedule prices: three readers of one table."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("strategy,shard_size", ROWS, ids=ROW_IDS)
    def test_row_derived_plan_equals_engine_ledger_and_schedule(
        self, strategy, shard_size, k
    ):
        world = World(4, ranks_per_node=2)
        sink = RecordingSink()
        engine = make_engine(
            MaskedAutoencoder(CFG, rng=np.random.default_rng(0)),
            strategy,
            world=world,
            shard_size=shard_size,
            grad_accum_steps=k,
            telemetry=TelemetryBus(sink),
        )
        images = np.random.default_rng(1).standard_normal((16 * k, 3, 32, 32))
        MAEPretrainer(engine, images, global_batch=8 * k, seed=0).run(1)

        # -- the closed form, from the row alone ---------------------------
        numels = dp_unit_numels(CFG)
        if engine.units is None:
            assert len(engine.grad_buffers) == 1  # one DDP bucket at this size
            numels = [sum(numels)]
        plan = dp_traffic_by_op(numels, strategy, world.size, k, shard_size)
        booked_bytes = Counter()
        for e in sink.events:
            if e.name.startswith("comm."):
                booked_bytes[e.name.removeprefix("comm.")] += e.attrs["bytes"]
        assert {op: t.calls for op, t in plan.items()} == engine.comm.stats.calls_by_op
        assert {op: t.bytes for op, t in plan.items()} == booked_bytes

        # -- the priced schedule: one rank's view of one round -------------
        machine = frontier_machine(1)
        units = mae_workload_units(CFG, 2, machine.gpu)
        schedule = build_step_schedule(
            units, strategy, world, machine.cost_model, shard_size=shard_size
        )
        tasks = Counter(
            t.name.split(":")[0].rstrip("0123456789")
            for t in schedule.timeline.tasks
            if t.resource == "comm"
        )
        row = STRATEGY_TABLE[strategy]
        s = engine.shard_size or 1
        calls = engine.comm.stats.calls_by_op
        if len(row.reduce) == 1:
            # One group, and one deferred reduce per step.
            n_groups, stages = 1, [(calls[row.reduce[0]], world.size)]
        else:
            n_groups = world.size // s
            stages = [
                (calls["reduce_scatter"] // (k * n_groups), s),
                (calls.get("all_reduce", 0) // s, n_groups),
            ]
        assert tasks["AGf"] + tasks["AGb"] == calls.get("all_gather", 0) // (k * n_groups)
        assert tasks["AGb"] == (len(units) if row.gathers(s, backward=True) else 0)
        # A collective over a one-rank group moves nothing; the engine
        # books the call, the schedule does not price it.
        wire = Counter()
        for op, (per_group, group_size) in zip(row.reduce, stages):
            wire[op] += per_group if group_size > 1 else 0
        assert tasks["RS"] == wire["reduce_scatter"]
        assert tasks["AR"] + tasks["ARrep"] + tasks["ARbucket"] == wire["all_reduce"]


class TestOptimizerStateSharding:
    """Engine-allocated optimizer state follows the sharding arithmetic."""

    @pytest.mark.parametrize(
        "strategy,shard_size,divisor",
        [
            (ShardingStrategy.NO_SHARD, None, 1),
            (ShardingStrategy.FULL_SHARD, None, 1),  # dedup: union = full
            (ShardingStrategy.HYBRID_SHARD, 2, 1),
        ],
    )
    def test_total_moment_bytes(self, strategy, shard_size, divisor):
        """The union of all shards' AdamW moments covers the padded
        parameter count exactly once (the engine deduplicates replica
        state, so totals equal the full model regardless of strategy)."""
        engine = _run_one_step(strategy, shard_size=shard_size)
        padded = sum(u.plan.padded_numel for u in engine.units)
        expected = 2 * padded * 8 / divisor  # m and v, float64
        assert engine.optimizer.state_bytes() == expected

    def test_param_count_vs_analytic(self):
        engine = _run_one_step(ShardingStrategy.NO_SHARD)
        n_params = sum(u.plan.numel for u in engine.units)
        # Padding adds at most (shard_size - 1) per unit.
        assert n_params >= count_mae_params(CFG)
        slack = sum(u.plan.padded_numel - u.plan.numel for u in engine.units)
        assert n_params == count_mae_params(CFG) + slack


class TestEndToEndDeterminism:
    def test_identical_runs_bitwise(self):
        a = _run_one_step(ShardingStrategy.FULL_SHARD)
        b = _run_one_step(ShardingStrategy.FULL_SHARD)
        for (_, pa), (_, pb) in zip(
            a.model.named_parameters(), b.model.named_parameters()
        ):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_stats_deterministic(self):
        a = _run_one_step(ShardingStrategy.HYBRID_SHARD, shard_size=2)
        b = _run_one_step(ShardingStrategy.HYBRID_SHARD, shard_size=2)
        assert a.comm.stats.calls_by_op == b.comm.stats.calls_by_op
        assert a.comm.stats.bytes_by_op == b.comm.stats.bytes_by_op
