"""Tests for the GPU spec and topology graph."""

import networkx as nx
import pytest

from repro.hardware.gpu import GpuSpec
from repro.hardware.topology import build_machine_graph, gcd_name


def min_path_bandwidth(graph: nx.Graph, src: str, dst: str) -> float:
    """Bottleneck bandwidth on the shortest path between two components."""
    path = nx.shortest_path(graph, src, dst)
    if len(path) < 2:
        return float("inf")
    return min(
        graph.edges[path[i], path[i + 1]]["bandwidth"] for i in range(len(path) - 1)
    )


def path_latency(graph: nx.Graph, src: str, dst: str) -> float:
    """Sum of link latencies on the shortest path between two components."""
    path = nx.shortest_path(graph, src, dst)
    return sum(
        graph.edges[path[i], path[i + 1]]["latency"] for i in range(len(path) - 1)
    )


class TestGpuSpec:
    def test_efficiency_monotone_in_width(self):
        gpu = GpuSpec()
        effs = [gpu.efficiency(w) for w in (128, 512, 1024, 4096)]
        assert effs == sorted(effs)
        assert all(0 < e < 1 for e in effs)

    def test_efficiency_saturates_below_base(self):
        gpu = GpuSpec()
        assert gpu.efficiency(1e9) == pytest.approx(gpu.base_efficiency, rel=1e-3)

    def test_half_saturation_point(self):
        gpu = GpuSpec()
        assert gpu.efficiency(gpu.half_saturation_width) == pytest.approx(
            gpu.base_efficiency / 2
        )

    def test_time_for_flops_linear(self):
        gpu = GpuSpec()
        t1 = gpu.time_for_flops(1e12, 1024)
        t2 = gpu.time_for_flops(2e12, 1024)
        assert t2 == pytest.approx(2 * t1)

    def test_invalid_inputs(self):
        gpu = GpuSpec()
        with pytest.raises(ValueError):
            gpu.efficiency(0)
        with pytest.raises(ValueError):
            gpu.time_for_flops(-1, 128)


class TestTopologyGraph:
    def test_component_counts(self):
        g = build_machine_graph(n_nodes=2)
        kinds = nx.get_node_attributes(g, "kind")
        assert sum(1 for k in kinds.values() if k == "gcd") == 16
        assert sum(1 for k in kinds.values() if k == "package") == 8
        assert sum(1 for k in kinds.values() if k == "node") == 2
        assert sum(1 for k in kinds.values() if k == "switch") == 1

    def test_in_package_path_is_fast(self):
        g = build_machine_graph(n_nodes=1)
        bw = min_path_bandwidth(g, gcd_name(0, 0), gcd_name(0, 1))
        assert bw == pytest.approx(200e9)

    def test_cross_package_bottleneck_is_xgmi(self):
        g = build_machine_graph(n_nodes=1)
        bw = min_path_bandwidth(g, gcd_name(0, 0), gcd_name(0, 7))
        assert bw == pytest.approx(50e9)

    def test_cross_node_bottleneck_is_xgmi_hop(self):
        # GCD -> package -> node -> switch -> node -> package -> GCD:
        # the 50 GB/s package-node hop is the narrowest.
        g = build_machine_graph(n_nodes=2)
        bw = min_path_bandwidth(g, gcd_name(0, 0), gcd_name(1, 0))
        assert bw == pytest.approx(50e9)

    def test_cross_node_latency_exceeds_intra(self):
        g = build_machine_graph(n_nodes=2)
        intra = path_latency(g, gcd_name(0, 0), gcd_name(0, 7))
        inter = path_latency(g, gcd_name(0, 0), gcd_name(1, 0))
        assert inter > intra

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            build_machine_graph(n_nodes=0)
        with pytest.raises(ValueError, match="not divisible"):
            build_machine_graph(n_nodes=1, gcds_per_node=7, gcds_per_package=2)
