"""The Frontier machine description and factory.

Published characteristics (OLCF, and Section III-B of the paper):

- 9408 nodes, one 64-core AMD EPYC CPU each;
- 4x AMD Instinct MI250X per node; each MI250X has two GCDs, so the
  application sees 8 GPUs per node, each with 64 GB HBM;
- Infinity Fabric GPU-GPU at 50 GB/s between packages;
- Slingshot-11 interconnect at 100 GB/s per node.

:func:`frontier_machine` assembles a :class:`Machine` scoped to the node
count of one experiment: the GCD spec and a collective cost model whose
bandwidths and per-hop alphas are derived from these constants. Those
numbers are the whole machine model; nothing else prices a link.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.cost_model import CollectiveCostModel
from repro.comm.world import World
from repro.hardware.gpu import GpuSpec

__all__ = ["FrontierSpec", "FRONTIER", "Machine", "frontier_machine"]


@dataclass(frozen=True)
class FrontierSpec:
    """System-wide constants for Frontier."""

    total_nodes: int = 9408
    gcds_per_node: int = 8
    gcds_per_package: int = 2
    intra_node_bw: float = 50e9
    nic_bw: float = 100e9
    #: Per-hop alphas of the pipelined ring collectives.
    intra_hop_alpha: float = 1.5e-6
    inter_hop_alpha: float = 12e-6
    #: Achieved fraction of NIC line rate for RCCL traffic (the
    #: RCCL + libfabric stack of the paper's era measured well below
    #: Slingshot-11 line rate).
    nic_efficiency: float = 0.65
    gpu: GpuSpec = field(default_factory=GpuSpec)


#: The canonical Frontier description used throughout the library.
FRONTIER = FrontierSpec()


@dataclass(frozen=True)
class Machine:
    """A job-scoped slice of a machine: N nodes plus derived models."""

    spec: FrontierSpec
    n_nodes: int
    cost_model: CollectiveCostModel = field(compare=False)

    @property
    def n_gpus(self) -> int:
        """GCDs in this machine slice."""
        return self.n_nodes * self.spec.gcds_per_node

    @property
    def gpu(self) -> GpuSpec:
        """The GCD specification."""
        return self.spec.gpu

    def world(self) -> World:
        """The rank layout for a job occupying this machine slice."""
        return World(size=self.n_gpus, ranks_per_node=self.spec.gcds_per_node)


def frontier_machine(n_nodes: int, spec: FrontierSpec = FRONTIER) -> Machine:
    """Build the machine model for a job on ``n_nodes`` Frontier nodes.

    The collective cost model's inter-node bandwidth is the NIC bandwidth
    divided by the MI250X packages per node (4): on Frontier each node's
    100 GB/s Slingshot NIC capacity is split across the four NIC-attached
    packages, so a single ring crossing the node boundary sees ~25 GB/s.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if n_nodes > spec.total_nodes:
        raise ValueError(
            f"requested {n_nodes} nodes but the machine has only {spec.total_nodes}"
        )
    if spec.gcds_per_node % spec.gcds_per_package != 0:
        raise ValueError(
            f"{spec.gcds_per_node} GCDs/node not divisible by "
            f"{spec.gcds_per_package}/package"
        )
    packages_per_node = spec.gcds_per_node // spec.gcds_per_package
    cost_model = CollectiveCostModel(
        intra_node_bw=spec.intra_node_bw,
        inter_node_bw=spec.nic_bw * spec.nic_efficiency / packages_per_node,
        intra_node_alpha=spec.intra_hop_alpha,
        inter_node_alpha=spec.inter_hop_alpha,
    )
    return Machine(spec=spec, n_nodes=n_nodes, cost_model=cost_model)
