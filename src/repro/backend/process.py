"""The shared-memory multiprocess execution backend.

Each rank of the simulated world becomes a real OS process (explicit
``spawn`` context — fork would duplicate NumPy/BLAS state and any live
thread pools). The division of labor keeps every numerical guarantee of
the inline engines intact:

- **Workers own rank compute.** Each worker holds a full model replica
  whose parameters are zero-copy views into one shared flat-parameter
  block and runs its rank's microbatch through the rank body the inline
  backend runs (:meth:`Storage.run_rank
  <repro.core.sharding.Storage.run_rank>`), which writes the outbound
  (loss-scaled/quantized) gradient contribution into the rank's
  ``(round, rank)`` row of a shared gradient staging block. A row is
  the engine's ``grad_buffers`` laid end to end (DDP: bucket order;
  FSDP: unit order), cut into per-buffer views by
  :func:`_staging_rows` on both sides; the worker lays its replica out
  by calling the function the engine called —
  :func:`~repro.core.sharding.declare_storage`, with the strategy,
  shard size and ``grad_groups`` its spec ships — so its gradient
  buffers are the parent's by construction.
- **The parent owns everything else.** The staged rows *are* the
  engine's ``_outbound`` (:meth:`ProcessBackend.outbound_rows`), so
  reduction consumes them with no copy
  *through the engine's unchanged deterministic schedule* (the
  same sequential direct reduction over the same contribution order —
  see DESIGN §12 for the determinism argument), so
  an fp32 process-backend step is bit-identical to the inline backend.
  Optimizer, collectives accounting, retry/fault machinery, loss
  scaling, and checkpointing all run unchanged in the parent; optimizer
  writes land in the shared parameter block, so workers see the new
  weights with no broadcast copy.

Synchronization is event-style over per-worker pipes. The round
protocol: the parent sends every rank ``("round", seq, round_index,
scale, telemetry_on, data_name, skeleton, step_blob)``; each worker
answers ``("ok", seq, loss, events)`` or ``("err", seq, traceback)``.
The shared blocks are written and read in strictly alternating phases,
so no locks are needed. Microbatch payloads travel through a separate
data segment (ndarray leaves land in shared memory; the structural
skeleton rides the pipe).

Telemetry fans in on that reply: workers record spans/counters on a
local bus, ``events`` carries the round's recorded
:class:`~repro.telemetry.bus.TelemetryEvent` tuple (``()`` when the
parent's bus is disabled; the worker's sink is empty after every round
either way), and once every reply is in the parent replays them onto
its bus in rank order (:meth:`TelemetryBus.merge`) tagged with the
originating rank. Nothing is sized in advance, so nothing is dropped.

Failure semantics: a ``step_fn`` exception inside a worker surfaces as
:class:`WorkerStepError` (traceback attached) after the worker has
released its activation caches and stays serviceable; a dead worker
(crash, kill, timeout) raises :class:`WorkerCrashError` and poisons the
backend — ``engine.close()`` (or the ``atexit`` sweep) reclaims every
process and ``/dev/shm`` segment either way.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
from typing import Any, Sequence

import numpy as np

from repro.backend.inline import ExecutionBackend
from repro.backend.shm import ShmArena, _align, plan_blocks
from repro.telemetry.bus import RecordingSink, TelemetryBus

__all__ = ["ProcessBackend", "WorkerCrashError", "WorkerStepError"]

#: Seconds the parent waits on a worker before declaring it dead.
WORKER_TIMEOUT_S = 300.0

#: Pool sizes a worker reads when it loads NumPy; unset, every rank would
#: start a pool as wide as the host and the ranks oversubscribe it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerCrashError(RuntimeError):
    """A worker process died (or stopped responding) mid-step."""

    def __init__(self, rank: int, detail: str):
        self.rank = rank
        super().__init__(f"worker rank {rank} crashed: {detail}")


class WorkerStepError(RuntimeError):
    """``step_fn`` raised inside a worker; the worker itself survived."""

    def __init__(self, rank: int, worker_traceback: str):
        self.rank = rank
        self.worker_traceback = worker_traceback
        super().__init__(
            f"step_fn failed on worker rank {rank}:\n{worker_traceback}"
        )


# -- microbatch staging ------------------------------------------------------
#
# ndarray leaves are copied into the shared data segment; the skeleton
# (nesting structure + non-array leaves) travels over the pipe. Decoding
# yields views — a worker's step_fn must treat its microbatch as
# read-only, exactly as inline step_fns share the caller's arrays.


def _measure_micro(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return _align(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_measure_micro(o) for o in obj)
    return 0


def _encode_micro(obj: Any, arena: ShmArena, cursor: list[int]):
    if isinstance(obj, np.ndarray):
        offset = cursor[0]
        cursor[0] += _align(obj.nbytes)
        view = arena.view(offset, obj.shape, obj.dtype)
        np.copyto(view, obj)
        return ("nd", offset, obj.shape, obj.dtype.str)
    if isinstance(obj, (tuple, list)):
        kind = "tuple" if isinstance(obj, tuple) else "list"
        return (kind, [_encode_micro(o, arena, cursor) for o in obj])
    return ("py", obj)


def _decode_micro(skeleton, arena: ShmArena | None):
    tag = skeleton[0]
    if tag == "nd":
        _, offset, shape, dtype = skeleton
        if arena is None:
            raise RuntimeError("microbatch references a data segment not attached")
        return arena.view(offset, shape, np.dtype(dtype))
    if tag in ("tuple", "list"):
        items = [_decode_micro(s, arena) for s in skeleton[1]]
        return tuple(items) if tag == "tuple" else items
    return skeleton[1]


# -- gradient staging ---------------------------------------------------------


def _staging_rows(arena: ShmArena, offset: int, k: int, dp: int, sizes, dtype):
    """``rows[j][r][i]``: gradient buffer ``i``'s run of the (round
    ``j``, rank ``r``) row of the shared ``(k, dp, sum(sizes))`` staging
    block. The parent (whose reduce reads them) and every worker (whose
    ``run_rank`` writes its own) cut the block with this one function."""
    bounds = np.cumsum([0, *sizes])
    block = arena.view(offset, (k, dp, int(bounds[-1])), dtype)
    return [
        [[block[j, r, lo:hi] for lo, hi in zip(bounds, bounds[1:])] for r in range(dp)]
        for j in range(k)
    ]


# -- the worker --------------------------------------------------------------


def _worker_main(spec: dict, conn) -> None:
    """Entry point of one rank process (spawn target; module-level for pickle)."""
    from repro.core.sharding import declare_storage
    from repro.models.workspace import Workspace

    rank = spec["rank"]
    # The replica follows the spawn launch on this pipe (see start()); a
    # ("stop",) in its place means start() failed on another rank.
    model = pickle.loads(conn.recv_bytes())
    if isinstance(model, tuple):
        conn.close()
        return
    arena = ShmArena.attach(spec["arena"])
    # A private workspace: the worker's steady-state step then allocates
    # nothing activation-sized and takes no page faults, like an inline
    # one (tests/test_models/test_steady_state.py); numerics are unchanged.
    model.use_workspace(Workspace())
    dtype = np.dtype(spec["dtype"])
    storage = declare_storage(
        model, spec["strategy"], spec["shard_size"], spec["grad_groups"]
    )
    storage.rehome(
        [arena.view(offset, (numel,), dtype) for offset, numel in spec["param_layout"]]
    )
    sizes = [buf.size for buf in storage.grad_buffers]
    # This rank's row of every round.
    rows = [round_[rank] for round_ in _staging_rows(arena, *spec["grads"], sizes, dtype)]

    bus = TelemetryBus(RecordingSink())
    sink = bus.sink
    # A mesh engine's TP context unpickles with its comm/bus nulled
    # (SimComm state must stay per-process); rewire it against this
    # worker's own collective engine and telemetry bus so the
    # load-bearing tp all-gathers run (and are accounted) locally.
    tp = model.tensor_parallel
    if tp is not None:
        from repro.comm.collectives import SimComm

        tp.rewire(SimComm(), bus)
    data_arena: ShmArena | None = None
    conn.send(("ready", rank))
    while True:
        try:
            cmd = conn.recv()
        except (EOFError, OSError):
            break
        if cmd[0] == "stop":
            break
        _, seq, round_index, scale, telemetry_on, data_name, skeleton, step_blob = cmd
        t0 = time.process_time()
        try:
            if data_name is not None and (
                data_arena is None or data_arena.name != data_name
            ):
                if data_arena is not None:
                    data_arena.close()
                data_arena = ShmArena.attach(data_name)
            micro = _decode_micro(skeleton, data_arena)
            step_fn = pickle.loads(step_blob)
            row = rows[round_index]
            with bus.span("worker.fwd_bwd", rank=rank, round=round_index):
                loss = storage.run_rank(model, micro, step_fn, row, scale)
            bus.gauge(
                "worker.cpu_s", time.process_time() - t0,
                rank=rank, round=round_index,
            )
            # The worker's bus always records (its tp context holds it
            # too); the parent says whether the round's events are wanted,
            # and the sink is emptied every round either way.
            events = tuple(sink.events) if telemetry_on else ()
            sink.events.clear()
            conn.send(("ok", seq, loss, events))
        except Exception:
            # Same cleanup contract as the inline engines: never leave a
            # model's worth of activations pinned behind a failed micro.
            model.release_caches()
            sink.events.clear()
            conn.send(("err", seq, traceback.format_exc()))
    if data_arena is not None:
        data_arena.close()
    arena.close()
    conn.close()


# -- the parent-side backend -------------------------------------------------


class ProcessBackend(ExecutionBackend):
    """One spawned OS process per rank over a shared-memory arena.

    Constructed by the engine *before* its optimizer: construction
    re-homes the engine's parameter storage (``engine.storage``: each
    parameter's data, or each unit's flat buffer) into the shared
    segment, so optimizer state and flat-shard views built afterwards
    alias shared storage and every parent-side update is immediately
    visible to workers. One worker is spawned per
    ``engine.data_parallel_size`` rank; :mod:`repro.backend.inline`
    lists every engine attribute the seam reads.
    """

    name = "process"

    def __init__(self, engine):
        super().__init__(engine)
        # One worker per rank that runs distinct microbatches: a mesh
        # engine's tp axis is folded into each dp rank's step (a mesh
        # with pp > 1 is refused before it gets here).
        self.world_size = engine.data_parallel_size
        self._storage = engine.storage
        arrays = self._storage.arrays()
        dtypes = {a.dtype for a in arrays}
        if len(dtypes) != 1:
            raise ValueError(
                f"backend='process' needs a uniform parameter dtype, got "
                f"{sorted(str(d) for d in dtypes)}; use backend='inline'"
            )
        self._dtype = arrays[0].dtype
        sizes = [a.size for a in arrays]
        # A staging row is the engine's gradient buffers laid end to end.
        grad_sizes = [buf.size for buf in engine.grad_buffers]

        blocks = {f"p{i}": n * self._dtype.itemsize for i, n in enumerate(sizes)}
        k = engine.grad_accum_steps
        blocks["grads"] = k * self.world_size * sum(grad_sizes) * self._dtype.itemsize
        offsets, total = plan_blocks(blocks)
        self._arena = ShmArena.create(total)
        self._param_layout = [
            (offsets[f"p{i}"], n) for i, n in enumerate(sizes)
        ]
        #: What a worker needs, besides its own buffer sizes, to cut the
        #: staging block as the parent does.
        self._grads = (offsets["grads"], k, self.world_size)

        # Re-home parameter storage into the arena (values preserved).
        views = [
            self._arena.view(offset, (numel,), self._dtype)
            for offset, numel in self._param_layout
        ]
        for view, array in zip(views, arrays):
            np.copyto(view, array.reshape(-1))
        self._storage.rehome(views)

        self._rows = _staging_rows(self._arena, *self._grads, grad_sizes, self._dtype)

        self._procs: list = []
        self._conns: list = []
        self._data: ShmArena | None = None
        self._seq = 0
        self._started = False
        self._broken: str | None = None
        self._shut = False

    def outbound_rows(self):
        """Views of the staging block: the workers write them, the
        engine's reduce reads them in place. :meth:`shutdown` empties
        this very list, so the engine's views go with the arena."""
        return self._rows

    # -- lifecycle ---------------------------------------------------------

    def _model_blob(self) -> bytes:
        model = self.engine.model
        workspace = model.workspace
        model.use_workspace(None)  # scratch pools are per-process
        try:
            return pickle.dumps(model)
        except Exception as err:
            raise TypeError(
                "backend='process' requires a picklable model (spawn workers "
                f"receive a replica): {err}"
            ) from err
        finally:
            if workspace is not None:
                model.use_workspace(workspace)

    def start(self) -> None:
        """Spawn one worker per rank, send each its model replica and
        wait for the attach rendezvous.

        Every process is started before any replica is sent. Spawn writes
        a process's launch arguments into a pipe its child reads only
        after re-importing ``__main__``; a replica there (megabytes) would
        overflow the pipe buffer and hold each ``proc.start()`` until that
        child had finished importing, so the ranks would start one after
        another. Sent afterwards over the rank's own pipe, it is read by
        every child once its imports are done, in parallel.
        """
        if self._started:
            return
        ctx = multiprocessing.get_context("spawn")
        blob = self._model_blob()
        spec_common = {
            "strategy": self.engine.strategy,
            "shard_size": self.engine.shard_size,
            "arena": self._arena.name,
            "dtype": self._dtype.str,
            "param_layout": self._param_layout,
            "grad_groups": self.engine.grad_groups,
            "grads": self._grads,
        }
        # Spawned children inherit os.environ as it is at start(): pin the
        # pools the user left unset for exactly that long.
        pinned = [name for name in BLAS_THREAD_VARS if name not in os.environ]
        os.environ.update(dict.fromkeys(pinned, "1"))
        try:
            try:
                for r in range(self.world_size):
                    parent_conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(dict(spec_common, rank=r), child_conn),
                        name=f"repro-rank{r}",
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    self._procs.append(proc)
                    self._conns.append(parent_conn)
            finally:
                for name in pinned:
                    del os.environ[name]
            for r, conn in enumerate(self._conns):
                try:
                    conn.send_bytes(blob)
                except OSError as err:  # the child died before reading it
                    code = self._procs[r].exitcode
                    self._broken = f"pipe closed before the replica was read (exitcode {code})"
                    raise WorkerCrashError(r, self._broken) from err
            for r in range(self.world_size):
                msg = self._recv(r)
                if msg != ("ready", r):
                    raise WorkerCrashError(r, f"bad rendezvous message {msg!r}")
        except BaseException:
            # The engine is never returned: reclaim the workers and
            # segments here, as close() would.
            self.shutdown()
            raise
        self._started = True

    def shutdown(self) -> None:
        """Stop workers, reclaim processes and segments, re-home storage.

        Idempotent, and safe after a crash: live workers get a stop
        command, stragglers are terminated then killed, and both shared
        segments are unlinked. Parameter storage moves back to private
        arrays (flat-shard views re-installed for FSDP) so the engine
        remains fully usable — just inline-less-the-workers.
        """
        if self._shut:
            return
        self._shut = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []
        # Re-home parameters to private storage so arena views can die.
        self._storage.rehome(
            [np.array(a).reshape(-1) for a in self._storage.arrays()]
        )
        self._rows.clear()
        if self._data is not None:
            self._data.destroy()
            self._data = None
        self._arena.destroy()

    # -- the round ---------------------------------------------------------

    def _recv(self, rank: int):
        conn = self._conns[rank]
        try:
            if not conn.poll(WORKER_TIMEOUT_S):
                self._broken = f"rank {rank} unresponsive for {WORKER_TIMEOUT_S:.0f}s"
                raise WorkerCrashError(rank, self._broken)
            return conn.recv()
        except (EOFError, ConnectionResetError, BrokenPipeError) as err:
            code = self._procs[rank].exitcode
            self._broken = f"pipe closed (exitcode {code})"
            raise WorkerCrashError(rank, self._broken) from err

    def _stage_micros(self, micros: Sequence[Any]) -> tuple[str | None, list]:
        needed = sum(_measure_micro(m) for m in micros)
        if needed == 0:
            return (self._data.name if self._data is not None else None), [
                _encode_micro(m, self._data, [0]) for m in micros
            ]
        if self._data is None or self._data.size < needed:
            fresh = ShmArena.create(max(needed, 1), prefix="repro-data")
            if self._data is not None:
                # unlink-while-mapped is safe; workers swap on name change.
                self._data.destroy()
            self._data = fresh
        cursor = [0]
        skeletons = [_encode_micro(m, self._data, cursor) for m in micros]
        return self._data.name, skeletons

    def run_round(self, round_index, micros, step_fn):
        if self._shut:
            raise RuntimeError(
                "process backend already shut down; build a new engine "
                "(or backend='inline') to keep training"
            )
        if not self._started:
            raise RuntimeError("ProcessBackend.run_round before start()")
        if self._broken:
            raise WorkerCrashError(-1, f"backend poisoned: {self._broken}")
        try:
            step_blob = pickle.dumps(step_fn)
        except Exception as err:
            raise TypeError(
                "backend='process' requires a picklable step_fn (a "
                f"module-level function, not a closure/lambda): {err}"
            ) from err
        data_name, skeletons = self._stage_micros(micros)
        scale = self.engine._wire_scale()
        bus = self.engine.telemetry
        telemetry_on = bus.enabled
        self._seq += 1
        for r in range(self.world_size):
            self._conns[r].send(
                (
                    "round",
                    self._seq,
                    round_index,
                    scale,
                    telemetry_on,
                    data_name,
                    skeletons[r],
                    step_blob,
                )
            )
        # Every reply is in before any is read: the workers' events merge
        # after the round, in rank order.
        replies = [self._recv(r) for r in range(self.world_size)]
        losses: list[float] = []
        failed: WorkerStepError | None = None
        for r, (tag, seq, *rest) in enumerate(replies):
            if tag != "ok":
                failed = failed or WorkerStepError(r, rest[0])
                continue
            if seq != self._seq:  # pragma: no cover - protocol guard
                raise WorkerCrashError(r, f"out-of-order reply {seq}")
            loss, events = rest
            losses.append(loss)
            bus.merge(events, rank=r)
        if failed is not None:
            raise failed
        return losses
