"""Analytical time model for collectives on a hierarchical machine.

The performance simulator times every collective with the classic
alpha-beta (latency-bandwidth) model of the ring algorithms RCCL uses:

``T = steps * alpha_eff + wire_bytes / B_eff``

where

- ``steps`` is ``g - 1`` for all-gather / reduce-scatter and
  ``2 * (g - 1)`` for all-reduce (ring = reduce-scatter + all-gather);
- ``wire_bytes`` is the per-rank data volume of the ring algorithm
  (see :mod:`repro.comm.collectives`);
- ``B_eff`` is the bandwidth of the slowest link on the ring. A ring is
  mapped contiguously onto the machine, so when a group spans multiple
  nodes exactly one ring edge crosses each node boundary and the NIC is
  the bottleneck. When several groups run the *same* collective
  concurrently (e.g. the per-shard-index all-reduces of HYBRID_SHARD),
  they share each NIC, dividing its bandwidth (``nic_share``).

Ring latency grows *linearly* in group size, matching the flattening the
paper observes for world-spanning FULL_SHARD groups (RCCL's tree variants
would soften, not remove, this effect; the paper's measurements show the
un-softened shape).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GroupPlacement", "CollectiveCostModel"]


@dataclass(frozen=True)
class GroupPlacement:
    """Where a collective group sits on the machine.

    Attributes
    ----------
    group_size:
        Number of ranks in the group.
    nodes_spanned:
        Distinct nodes the group touches.
    nic_share:
        Number of groups concurrently running the same collective whose
        rings cross each NIC (>= 1). ``1`` means exclusive NIC use.
    """

    group_size: int
    nodes_spanned: int
    nic_share: int = 1

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.nodes_spanned < 1:
            raise ValueError(f"nodes_spanned must be >= 1, got {self.nodes_spanned}")
        if self.nodes_spanned > self.group_size:
            raise ValueError(
                f"group of {self.group_size} cannot span {self.nodes_spanned} nodes"
            )
        if self.nic_share < 1:
            raise ValueError(f"nic_share must be >= 1, got {self.nic_share}")

    @property
    def crosses_nodes(self) -> bool:
        """True when the group spans more than one node."""
        return self.nodes_spanned > 1


@dataclass(frozen=True)
class CollectiveCostModel:
    """Alpha-beta collective timing for one machine configuration.

    All bandwidths in bytes/second, latencies in seconds. The link
    constants' one home is :class:`~repro.hardware.frontier.FrontierSpec`,
    from which :func:`~repro.hardware.frontier.frontier_machine` builds it.

    Latency is counted per ring *hop*, split by hop type: a contiguous
    ring over a group spanning ``m`` nodes crosses a node boundary ``m``
    times per traversal (paying ``inter_node_alpha`` each) and stays
    on-node for the remaining ``g - 1 - m`` hops (paying
    ``intra_node_alpha``). This hop-type split is what makes, e.g., a
    half-world all-reduce cheaper in latency than a full-world one only
    by its intra-node hops, matching observed RCCL behaviour.
    """

    intra_node_bw: float  # Infinity Fabric GPU-GPU, per direction
    inter_node_bw: float  # Slingshot-11 NIC share per MI250X/pair of GCDs
    intra_node_alpha: float
    inter_node_alpha: float

    def _effective_bandwidth(self, placement: GroupPlacement) -> float:
        if not placement.crosses_nodes:
            return self.intra_node_bw
        return min(self.intra_node_bw, self.inter_node_bw / placement.nic_share)

    def _alpha_per_pass(self, placement: GroupPlacement) -> float:
        """Total hop latency of one ring traversal (g - 1 hops)."""
        g = placement.group_size
        hops = g - 1
        inter_hops = min(hops, placement.nodes_spanned) if placement.crosses_nodes else 0
        intra_hops = hops - inter_hops
        # Concurrent rings sharing a NIC queue behind each other on every
        # node-boundary hop, inflating the effective hop latency.
        inter_alpha = self.inter_node_alpha * placement.nic_share
        return inter_hops * inter_alpha + intra_hops * self.intra_node_alpha

    def _ring(self, passes: int, wire_bytes: float, placement: GroupPlacement) -> float:
        if placement.group_size == 1:
            return 0.0
        bw = self._effective_bandwidth(placement)
        return passes * self._alpha_per_pass(placement) + wire_bytes / bw

    def all_gather(self, nbytes: float, placement: GroupPlacement) -> float:
        """Time to all-gather a tensor of ``nbytes`` total (unsharded) size."""
        g = placement.group_size
        return self._ring(1, (g - 1) / g * nbytes, placement)

    def reduce_scatter(self, nbytes: float, placement: GroupPlacement) -> float:
        """Time to reduce-scatter a tensor of ``nbytes`` total size."""
        g = placement.group_size
        return self._ring(1, (g - 1) / g * nbytes, placement)

    def all_reduce(self, nbytes: float, placement: GroupPlacement) -> float:
        """Time to all-reduce a tensor of ``nbytes`` size (RS + AG ring)."""
        g = placement.group_size
        return self._ring(2, 2 * (g - 1) / g * nbytes, placement)
