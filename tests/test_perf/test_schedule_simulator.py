"""Tests for the schedule builder and end-to-end step simulator."""

import json

import pytest

from repro.core.config import get_mae_config, get_vit_config
from repro.core.sharding import BackwardPrefetch, ShardingStrategy
from repro.hardware.frontier import frontier_machine
from repro.mesh.spec import MeshSpec
from repro.perf.schedule import (
    PerfParams,
    build_step_schedule,
    replica_group_placement,
    shard_group_placement,
)
from repro.perf.simulator import TrainStepSimulator
from repro.telemetry import (
    RecordingSink,
    RunReport,
    TelemetryBus,
    to_trace_events,
    write_span_trace,
)


def _sim(model_name="vit-base", n_nodes=4, strategy=ShardingStrategy.NO_SHARD,
         shard_size=None, **pp):
    cfg = get_vit_config(model_name)
    return TrainStepSimulator(
        cfg, frontier_machine(n_nodes), strategy, shard_size=shard_size,
        params=PerfParams(**pp) if pp else None,
    )


class TestPlacements:
    def test_shard_group_within_node(self):
        w = frontier_machine(4).world()
        pl = shard_group_placement(w, 8)
        assert pl.nodes_spanned == 1

    def test_shard_group_spanning_nodes(self):
        w = frontier_machine(4).world()
        pl = shard_group_placement(w, 16)
        assert pl.nodes_spanned == 2

    def test_replica_groups_share_nic(self):
        w = frontier_machine(4).world()
        pl = replica_group_placement(w, 2)
        assert pl.group_size == 16
        assert pl.nic_share == 2

    def test_replica_group_one_per_node(self):
        w = frontier_machine(4).world()
        pl = replica_group_placement(w, 8)
        assert pl.group_size == 4
        assert pl.nodes_spanned == 4
        assert pl.nic_share == 8

    def test_single_replica_degenerate(self):
        w = frontier_machine(1).world()
        pl = replica_group_placement(w, 8)
        assert pl.group_size == 1


class TestScheduleStructure:
    def _schedule(self, strategy, shard_size=None, optimizer_seconds=0.0, **kwargs):
        m = frontier_machine(2)
        cfg = get_vit_config("vit-base")
        from repro.perf.compute_model import workload_units

        units = workload_units(cfg, 32, m.gpu)
        return build_step_schedule(
            units, strategy, m.world(), m.cost_model, shard_size=shard_size,
            params=PerfParams(**kwargs), optimizer_seconds=optimizer_seconds,
        )

    def test_no_shard_one_allreduce_per_unit(self):
        s = self._schedule(ShardingStrategy.NO_SHARD)
        assert s.comm_calls == 13  # 12 blocks + root

    def test_full_shard_three_collectives_per_unit(self):
        s = self._schedule(ShardingStrategy.FULL_SHARD)
        assert s.comm_calls == 3 * 13

    def test_sgo_two_collectives_per_unit(self):
        s = self._schedule(ShardingStrategy.SHARD_GRAD_OP)
        assert s.comm_calls == 2 * 13

    def test_hybrid_four_collectives_per_unit(self):
        s = self._schedule(ShardingStrategy.HYBRID_SHARD, shard_size=2)
        assert s.comm_calls == 4 * 13  # AGf + AGb + RS + replica AR

    def test_hybrid1_matches_noshard_structure(self):
        h1 = self._schedule(ShardingStrategy.HYBRID_SHARD, shard_size=1)
        assert h1.comm_calls == 13

    def test_ddp_buckets_drive_call_count(self):
        few = self._schedule(ShardingStrategy.DDP)
        many = self._schedule(
            ShardingStrategy.DDP, ddp_bucket_cap_bytes=4 * 1024 * 1024
        )
        assert many.comm_calls > few.comm_calls

    def test_step_time_at_least_compute(self):
        s = self._schedule(ShardingStrategy.FULL_SHARD)
        assert s.step_time >= s.step_time_no_comm
        assert s.exposed_comm_seconds >= 0

    def test_optimizer_task_appended(self):
        s = self._schedule(ShardingStrategy.NO_SHARD, optimizer_seconds=0.5)
        assert any(t.name == "optimizer" for t in s.timeline.tasks)

    def test_hybrid_requires_shard_size(self):
        with pytest.raises(ValueError, match="shard_size"):
            self._schedule(ShardingStrategy.HYBRID_SHARD)

    def test_no_limit_adds_stalls(self):
        limited = self._schedule(ShardingStrategy.FULL_SHARD, limit_all_gathers=True)
        free = self._schedule(ShardingStrategy.FULL_SHARD, limit_all_gathers=False)
        assert free.stall_seconds > limited.stall_seconds == 0.0


class TestPrefetchPolicies:
    @pytest.mark.parametrize("strategy", [
        ShardingStrategy.FULL_SHARD,
        ShardingStrategy.HYBRID_SHARD,
    ])
    def test_pre_fastest_none_slowest(self, strategy):
        shard_size = 2 if strategy is ShardingStrategy.HYBRID_SHARD else None
        times = {}
        for pf in BackwardPrefetch:
            sim = _sim("vit-5b", 8, strategy, shard_size, prefetch=pf)
            times[pf] = sim.simulate().step_time_s
        assert times[BackwardPrefetch.BACKWARD_PRE] <= times[
            BackwardPrefetch.BACKWARD_POST
        ]
        assert times[BackwardPrefetch.BACKWARD_POST] <= times[BackwardPrefetch.NONE]

    def test_limit_all_gathers_helps(self):
        on = _sim("vit-5b", 8, ShardingStrategy.FULL_SHARD, limit_all_gathers=True)
        off = _sim("vit-5b", 8, ShardingStrategy.FULL_SHARD, limit_all_gathers=False)
        assert on.simulate().ips > off.simulate().ips

    def test_sgo_prefetch_insensitive(self):
        """No backward re-gather -> prefetch policy cannot matter."""
        times = {
            pf: _sim("vit-5b", 8, ShardingStrategy.SHARD_GRAD_OP, prefetch=pf)
            .simulate().step_time_s
            for pf in BackwardPrefetch
        }
        assert len(set(times.values())) == 1


class TestSimulator:
    def test_breakdown_consistency(self):
        bd = _sim().simulate()
        assert bd.step_time_s > 0
        assert bd.ips > 0
        assert bd.ips_no_comm >= bd.ips
        assert 0 <= bd.comm_fraction < 1
        assert bd.real_step_time_s >= bd.step_time_s

    def test_weak_scaling_increases_global_ips(self):
        a = _sim(n_nodes=1).simulate().ips
        b = _sim(n_nodes=4).simulate().ips
        assert a < b < 4.5 * a

    def test_io_not_bottleneck_default(self):
        bd = _sim("vit-3b", 8).simulate()
        assert bd.ips_io > bd.ips  # paper: never IO-bound

    def test_realloc_penalty_applies_only_to_resharding(self):
        # 5B HYBRID_2 is memory-tight; NO_SHARD at the same pressure is
        # static and exempt.
        tight = _sim("vit-5b", 8, ShardingStrategy.HYBRID_SHARD, 2)
        free = _sim("vit-5b", 8, ShardingStrategy.HYBRID_SHARD, 8)
        assert tight._realloc_multiplier() > 1.0
        assert free._realloc_multiplier() == 1.0

    def test_power_trace_reasonable(self):
        tr = _sim("vit-5b", 4, ShardingStrategy.FULL_SHARD).power_trace()
        assert 90 <= tr.mean_power <= 300
        assert tr.mean_utilization > 90  # paper: ~100%

    def test_chrome_trace_export(self, tmp_path):
        """A simulated step exports through the measured-run writer: one
        X event per scheduled task, each on its stream's own lane."""
        sim = _sim()
        sched = sim.build_schedule()
        sink = RecordingSink()
        bus = TelemetryBus(sink, clock=lambda: 0.0)
        sched.record(bus)
        sim.memory().emit(bus)
        events = to_trace_events(sink.events, "simulated")
        xs = [e for e in events if e.get("ph") == "X"]
        assert len(xs) == len(sched.timeline.tasks)
        lanes = {
            e["args"]["name"]: e["tid"] for e in events if e["name"] == "thread_name"
        }
        assert {"compute", "comm"} <= set(lanes)
        assert lanes["compute"] != lanes["comm"]
        for x, s in zip(xs, sched.timeline.run()):
            assert x["tid"] == lanes[s.task.resource]
            assert x["args"]["task"] == s.task.name
            assert x["ts"] == s.start * 1e6
        gauges = {e["name"]: e["args"][e["name"]] for e in events if e["ph"] == "C"}
        assert sum(gauges.values()) == pytest.approx(sim.memory().total)
        assert all(name.startswith("mem.") for name in gauges)
        path = tmp_path / "trace.json"
        write_span_trace(sink.events, str(path), process_name="simulated")
        data = json.loads(path.read_text())
        assert "traceEvents" in data

    @pytest.mark.parametrize(
        "mesh", [None, MeshSpec(pp=2, tp=2, dp=8, schedule="1f1b")], ids=["dp", "mesh"]
    )
    def test_recorded_step_matches_its_tallies(self, mesh):
        """The replayed stream is the step: its RunReport gives back the
        schedule's per-step calls, seconds and makespan."""
        sim = _sim("vit-3b", 4, ShardingStrategy.FULL_SHARD, mesh=mesh, pipeline_micros=4)
        sched = sim.build_schedule()
        sink = RecordingSink()
        sched.record(TelemetryBus(sink, clock=lambda: 0.0))
        report = RunReport.from_events(sink.events)
        assert sum(a.count for n, a in report.spans.items() if n.startswith("comm.")) == (
            sched.step_comm_calls
        )
        assert report.comm_seconds == pytest.approx(sched.step_comm_seconds)
        assert report.compute_seconds + report.span_seconds("optim.") == pytest.approx(
            sched.step_compute_seconds
        )
        for axis, seconds in sched.step_axis_comm_seconds().items():
            assert report.axis_spans[axis].total_s == pytest.approx(seconds)
        assert max(e.t_s + e.value for e in sink.events) == pytest.approx(
            sched.step_time
        )
