"""Ranks, process groups, and hybrid-sharding meshes.

A :class:`World` is the set of all ranks participating in a job, numbered
``0..size-1`` exactly as ``torch.distributed`` numbers them. A
:class:`Group` is an ordered subset of world ranks over which a collective
operates (the analogue of an MPI communicator / NCCL process group).

:func:`make_hybrid_mesh` reproduces the 2-D device mesh FSDP's
``HYBRID_SHARD`` builds: the world is split into contiguous *shard groups*
of ``shard_size`` ranks (all-gather / reduce-scatter happen inside these),
and *replica groups* that connect the ranks holding the same shard index
across shard groups (gradient all-reduce happens inside these).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["World", "Group", "make_hybrid_mesh", "HybridMesh", "pair_group"]


@dataclass(frozen=True)
class Group:
    """An ordered set of global ranks participating in a collective."""

    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.ranks) == 0:
            raise ValueError("a group must contain at least one rank")
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError(f"duplicate ranks in group: {self.ranks}")

    @property
    def size(self) -> int:
        """Number of ranks in the group."""
        return len(self.ranks)

    def index_of(self, global_rank: int) -> int:
        """Position of ``global_rank`` inside this group (its 'group rank')."""
        try:
            return self.ranks.index(global_rank)
        except ValueError:
            raise ValueError(f"rank {global_rank} is not in group {self.ranks}") from None

    def __contains__(self, global_rank: int) -> bool:
        return global_rank in self.ranks

    def __iter__(self):
        return iter(self.ranks)

    def __len__(self) -> int:
        return len(self.ranks)


@dataclass
class World:
    """All ranks in the job.

    Parameters
    ----------
    size:
        Total number of ranks (GPUs/GCDs from the application's view).
    ranks_per_node:
        How many ranks share a node; rank ``r`` lives on node
        ``r // ranks_per_node`` (the standard contiguous block mapping used
        by Slurm on Frontier).
    """

    size: int
    ranks_per_node: int = 8
    _groups: dict[str, Group] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"world size must be positive, got {self.size}")
        if self.ranks_per_node <= 0:
            raise ValueError(
                f"ranks_per_node must be positive, got {self.ranks_per_node}"
            )

    @property
    def n_nodes(self) -> int:
        """Number of nodes occupied (last node may be partially filled)."""
        return -(-self.size // self.ranks_per_node)

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for world of {self.size}")
        return rank // self.ranks_per_node

    def world_group(self) -> Group:
        """The group containing every rank."""
        return Group(tuple(range(self.size)))

    def new_group(self, ranks: tuple[int, ...] | list[int]) -> Group:
        """Create a group from explicit ranks, validating membership."""
        ranks = tuple(ranks)
        for r in ranks:
            if not 0 <= r < self.size:
                raise ValueError(f"rank {r} out of range for world of {self.size}")
        return Group(ranks)

    def nodes_spanned(self, group: Group) -> int:
        """How many distinct nodes a group touches."""
        return len({self.node_of(r) for r in group.ranks})


def pair_group(src: int, dst: int) -> Group:
    """The 2-rank group of a point-to-point transfer (``SimComm.send``).

    Lives here because ``Group`` construction is confined to this module
    and :mod:`repro.mesh` (``tools/lint.py``'s ``group_discipline`` rule).
    """
    if src == dst:
        raise ValueError(f"a point-to-point pair needs distinct ranks, got {src}")
    return Group((src, dst))


@dataclass(frozen=True)
class HybridMesh:
    """The 2-D (replica x shard) mesh used by ``HYBRID_SHARD``.

    ``shard_groups[i]`` is the i-th contiguous block of ``shard_size``
    ranks; ``replica_groups[j]`` connects the ranks with shard index ``j``
    across all shard groups. Every rank belongs to exactly one group of
    each kind.
    """

    shard_groups: tuple[Group, ...]
    replica_groups: tuple[Group, ...]

    @property
    def shard_size(self) -> int:
        """Ranks per shard group."""
        return self.shard_groups[0].size

    @property
    def n_replicas(self) -> int:
        """Number of model replicas (= number of shard groups)."""
        return len(self.shard_groups)

    def shard_group_of(self, rank: int) -> Group:
        """The shard group containing ``rank``."""
        for g in self.shard_groups:
            if rank in g:
                return g
        raise ValueError(f"rank {rank} not in any shard group")

    def replica_group_of(self, rank: int) -> Group:
        """The replica group containing ``rank``."""
        for g in self.replica_groups:
            if rank in g:
                return g
        raise ValueError(f"rank {rank} not in any replica group")


def make_hybrid_mesh(world: World, shard_size: int) -> HybridMesh:
    """Build the HYBRID_SHARD mesh for ``shard_size`` ranks per shard group.

    ``shard_size=1`` degenerates to pure data parallelism (the paper's
    ``HYBRID_1GPU``); ``shard_size == world.size`` degenerates to
    ``FULL_SHARD`` over the whole world. The groups are those of a 2-D
    ``("replica", "shard")`` :class:`repro.mesh.DeviceMesh` whose inner
    (contiguous) axis is the shard axis; this is how a two-stage
    strategy row gets them.
    """
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    if world.size % shard_size != 0:
        raise ValueError(
            f"world size {world.size} not divisible by shard size {shard_size}"
        )
    # Imported lazily: device_mesh imports Group/World from this module.
    from repro.mesh.device_mesh import DeviceMesh

    mesh = DeviceMesh(
        world,
        (world.size // shard_size, shard_size),
        ("replica", "shard"),
    )
    return HybridMesh(
        shard_groups=mesh.groups("shard"),
        replica_groups=mesh.groups("replica"),
    )
