"""Tensor-parallel context: GEMM output sharding with load-bearing gathers.

Megatron-style tensor parallelism column-splits the first GEMM of a pair
and row-splits the second, stitching the halves back with an all-gather
(forward activations) and its mirror on the input gradient (backward).
The SPMD substrate here computes each flagged GEMM *once* at full width
— BLAS results for a sliced operand are not bitwise equal to slices of
the full product, so genuinely re-deriving each shard on its own GEMM
would break the engine's fp32 bit-exactness contract — and then treats
the tp dimension as a *data-movement* axis: the full output is cut into
the per-rank column shards each tp rank would own, the shards travel
through :meth:`SimComm.all_gather` over the tp group (validating the
ring algorithms and booking honest wire bytes), and the layer consumes
the *reassembled* gathered result. Reassembly of contiguous column
slices is a pure permutation copy, so the consumed activations are
bitwise identical to the single-rank computation by construction — the
same fixed-point economy the FSDP engine uses for parameter
all-gathers. Weight/bias gradients are sharded by construction (each
rank's dW columns come only from its dout columns), so no gradient
collective is needed on the tp axis.

A :class:`TPContext` is attached to a model tree with
:meth:`repro.models.module.Module.use_tensor_parallel`; layers flagged
``tp_shard = True`` (attention qkv/proj, MLP fc1/fc2) route their
forward output and backward input-gradient through
:meth:`TPContext.reassemble`.
"""

from __future__ import annotations

import numpy as np

from repro.comm.collectives import SimComm
from repro.comm.faults import RetryPolicy, retry_collective
from repro.comm.world import Group

__all__ = ["TPContext"]


class TPContext:
    """Per-model tensor-parallel state: group, collectives, telemetry.

    Parameters
    ----------
    size:
        Tensor-parallel ways (the tp group size).
    group:
        The tp :class:`~repro.comm.world.Group` (from a ``DeviceMesh``).
    comm:
        The :class:`~repro.comm.collectives.SimComm` carrying the
        gathers (usually the engine's, so byte accounting lands in one
        ledger).
    bus:
        Telemetry bus for ``comm.all_gather`` spans tagged
        ``axis="tp"``. ``None`` disables spans.
    retry_policy:
        The engine's :class:`~repro.comm.faults.RetryPolicy`: a tp
        gather retries, and books its retries, like every other
        collective (``None`` lets the first failure propagate).

    Pickling: ``comm`` and ``bus`` hold process-local state (lambdas in
    ``CommStats``, sink callbacks) and are dropped by ``__getstate__``;
    a process-backend worker re-attaches fresh ones via :meth:`rewire`
    after unpickling. All modules of one pickled model share a single
    context object (pickle preserves object identity within one graph),
    so one ``rewire`` call fixes the whole tree.
    """

    def __init__(
        self,
        size: int,
        group: Group,
        comm: SimComm | None,
        bus=None,
        retry_policy: RetryPolicy | None = None,
    ):
        if size < 1:
            raise ValueError(f"tp size must be >= 1, got {size}")
        if group.size != size:
            raise ValueError(
                f"tp group {group.ranks} has {group.size} ranks, expected {size}"
            )
        self.size = size
        self.group = group
        self.comm = comm
        self.bus = bus
        self.retry_policy = retry_policy
        # Send/receive staging rows, grown to the largest activation seen
        # and reused by every gather after it.
        self._staging: np.ndarray | None = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["comm"] = None
        state["bus"] = None
        state["_staging"] = None
        return state

    def rewire(self, comm: SimComm, bus=None) -> "TPContext":
        """Re-attach process-local collectives/telemetry after unpickling."""
        self.comm = comm
        self.bus = bus
        return self

    def reassemble(self, arr2: np.ndarray) -> None:
        """Round-trip ``arr2``'s columns through a tp all-gather, in place.

        ``arr2`` is the 2-D ``(rows, features)`` output of a flagged
        GEMM (or its input gradient). Its columns are cut into
        ``size`` contiguous per-rank shards, gathered over the tp
        group, and written back reassembled — a bitwise identity on the
        values, but the array the caller keeps using is now the
        *received* data, making the collective load-bearing. The shards
        are staged in, and received into, two buffers the context keeps
        (the send and receive buffers a real tp rank would hold).
        """
        t = self.size
        if t == 1:
            return
        if self.comm is None:
            raise RuntimeError(
                "TPContext has no SimComm attached (unpickled without rewire?)"
            )
        rows, feat = arr2.shape
        if feat % t != 0:
            raise ValueError(
                f"feature dim {feat} not divisible by tp size {t}"
            )
        c = feat // t
        n = arr2.size
        staging = self._staging
        if staging is None or staging.dtype != arr2.dtype or staging.shape[1] < n:
            staging = self._staging = np.empty((2, n), arr2.dtype)
        send = staging[0, :n].reshape(t, rows, c)
        recv = staging[1, :n].reshape(t, rows, c)
        cols = [slice(r * c, (r + 1) * c) for r in range(t)]
        for r, col in enumerate(cols):
            send[r] = arr2[:, col]
        shards = list(send.reshape(t, rows * c))
        retry_collective(
            lambda: self.comm.all_gather(shards, self.group, out=recv.reshape(n)),
            self.retry_policy,
            self.comm.stats,
            self.bus,
            "all_gather",
            arr2.nbytes,
            axis="tp",
        )
        for r, col in enumerate(cols):
            arr2[:, col] = recv[r]
