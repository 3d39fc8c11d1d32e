"""Tests for the Frontier machine factory and power model."""

from dataclasses import replace

import numpy as np
import pytest

from repro.hardware.frontier import FRONTIER, frontier_machine
from repro.hardware.power import PowerModel


class TestFrontierMachine:
    def test_published_constants(self):
        assert FRONTIER.total_nodes == 9408
        assert FRONTIER.gcds_per_node == 8
        assert FRONTIER.gpu.hbm_bytes == 64 * 1024**3
        assert FRONTIER.intra_node_bw == 50e9
        assert FRONTIER.nic_bw == 100e9

    def test_machine_slice(self):
        m = frontier_machine(4)
        assert m.n_gpus == 32
        assert m.world().size == 32
        assert m.world().ranks_per_node == 8

    def test_cost_model_derived_from_spec(self):
        m = frontier_machine(2)
        # NIC bandwidth is split across the four NIC-attached packages
        # and derated by the measured RCCL efficiency.
        expected = FRONTIER.nic_bw * FRONTIER.nic_efficiency / 4
        assert m.cost_model.inter_node_bw == pytest.approx(expected)
        assert m.cost_model.intra_node_bw == FRONTIER.intra_node_bw

    def test_bounds(self):
        with pytest.raises(ValueError):
            frontier_machine(0)
        with pytest.raises(ValueError, match="only"):
            frontier_machine(10_000)

    def test_gcds_per_node_must_split_into_packages(self):
        # The NIC split divides by packages per node.
        with pytest.raises(ValueError, match="not divisible"):
            frontier_machine(1, spec=replace(FRONTIER, gcds_per_node=7))


class TestPowerModel:
    def test_idle_floor(self):
        pm = PowerModel()
        assert pm.power(0.0) == pm.idle_power_w

    def test_full_compute_hits_max(self):
        pm = PowerModel()
        assert pm.power(1.0) == pytest.approx(pm.max_power_w)

    def test_comm_only_draws_less_than_compute(self):
        pm = PowerModel()
        comm = pm.trace(1.0, compute_occupancy=0.0, comm_occupancy=1.0, memory_bytes=0)
        compute = pm.trace(1.0, compute_occupancy=1.0, comm_occupancy=0.0, memory_bytes=0)
        # A comm-only step keeps the GPU "in use" but draws idle power.
        assert comm.mean_power == pytest.approx(pm.idle_power_w, rel=0.01)
        assert comm.mean_power < compute.mean_power
        assert comm.mean_utilization == compute.mean_utilization

    def test_overlap_does_not_double_count(self):
        pm = PowerModel()
        # Fully-overlapped comm adds nothing beyond the compute draw.
        both = pm.trace(1.0, compute_occupancy=1.0, comm_occupancy=1.0, memory_bytes=0)
        alone = pm.trace(1.0, compute_occupancy=1.0, comm_occupancy=0.0, memory_bytes=0)
        assert both.mean_power == alone.mean_power

    def test_utilization_counts_any_kernel(self):
        pm = PowerModel()
        assert pm.utilization(0.6, 0.9) == pytest.approx(90.0)
        assert pm.utilization(1.0, 0.0) == 100.0

    def test_occupancy_bounds(self):
        with pytest.raises(ValueError):
            PowerModel().power(1.5)
        with pytest.raises(ValueError, match="comm"):
            PowerModel().utilization(0.5, 1.5)

    def test_trace_shape_and_means(self):
        pm = PowerModel()
        tr = pm.trace(
            step_time_s=0.1,
            compute_occupancy=0.8,
            comm_occupancy=0.5,
            memory_bytes=1e9,
            n_steps=10,
            samples_per_step=4,
        )
        assert len(tr.times_s) == 40
        assert tr.mean_power == pytest.approx(pm.power(0.8), rel=0.05)
        assert np.all(tr.memory_bytes == 1e9)
        assert 0 <= tr.mean_utilization <= 100

    def test_trace_rejects_bad_step(self):
        with pytest.raises(ValueError):
            PowerModel().trace(0.0, 0.5, 0.5, 1e9)
