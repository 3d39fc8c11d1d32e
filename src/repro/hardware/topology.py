"""Hierarchical machine topology as a networkx graph.

Nodes of the graph are hardware components (``gcd:<n>:<g>``,
``package:<n>:<p>``, ``node:<n>``, ``switch``); edges carry ``bandwidth``
(bytes/s, per direction) and ``latency`` (seconds) attributes. The graph
is a faithful miniature of Frontier's wiring:

- two GCDs inside an MI250X package, joined by in-package Infinity Fabric;
- four packages per node on the Infinity Fabric GPU-GPU mesh;
- one Slingshot-11 NIC hop from each node to the interconnect.

The collective cost model (:mod:`repro.comm.cost_model`) uses aggregate
numbers derived from this graph rather than walking it per message, but
the graph is the ground truth those aggregates are tested against, and it
supports arbitrary what-if machines (different node widths, link speeds).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # networkx loads only when a graph is built
    import networkx as nx

__all__ = ["build_machine_graph", "gcd_name"]


def gcd_name(node: int, gcd: int) -> str:
    """Canonical graph-node name for GCD ``gcd`` on machine node ``node``."""
    return f"gcd:{node}:{gcd}"


def build_machine_graph(
    n_nodes: int,
    gcds_per_node: int = 8,
    gcds_per_package: int = 2,
    in_package_bw: float = 200e9,
    intra_node_bw: float = 50e9,
    nic_bw: float = 100e9,
    in_package_latency: float = 1e-6,
    intra_node_latency: float = 5e-6,
    inter_node_latency: float = 12e-6,
) -> nx.Graph:
    """Assemble the component graph for a machine of ``n_nodes`` nodes.

    Bandwidths are per-direction bytes/s; Frontier defaults are the
    published figures (in-package Infinity Fabric 200 GB/s, GPU-GPU
    Infinity Fabric 50 GB/s, Slingshot-11 100 GB/s per node).
    """
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    if gcds_per_node % gcds_per_package != 0:
        raise ValueError(
            f"{gcds_per_node} GCDs/node not divisible by {gcds_per_package}/package"
        )
    import networkx as nx

    g = nx.Graph()
    g.add_node("switch", kind="switch")
    packages_per_node = gcds_per_node // gcds_per_package
    for n in range(n_nodes):
        node_name = f"node:{n}"
        g.add_node(node_name, kind="node")
        g.add_edge(
            node_name,
            "switch",
            bandwidth=nic_bw,
            latency=inter_node_latency / 2,
            kind="nic",
        )
        for p in range(packages_per_node):
            pkg_name = f"package:{n}:{p}"
            g.add_node(pkg_name, kind="package")
            # Package-to-node edge models the Infinity Fabric GPU-GPU mesh
            # hop; all inter-package traffic on a node transits it.
            g.add_edge(
                pkg_name,
                node_name,
                bandwidth=intra_node_bw,
                latency=intra_node_latency / 2,
                kind="xgmi",
            )
            for d in range(gcds_per_package):
                gcd = p * gcds_per_package + d
                name = gcd_name(n, gcd)
                g.add_node(name, kind="gcd", node=n, package=p)
                g.add_edge(
                    name,
                    pkg_name,
                    bandwidth=in_package_bw,
                    latency=in_package_latency / 2,
                    kind="in_package",
                )
    return g
