"""Pipeline-parallel schedules over layer-partitioned op stages.

A model exposing ``pipeline_ops()`` (see :mod:`repro.models.mae`) is
partitioned into ``pp`` contiguous op chunks — the *stages*. A schedule
is a sequence of ``("fwd"|"bwd", stage, micro)`` actions that respects
the pipeline dependencies:

- ``fwd(s, j)`` needs ``fwd(s-1, j)`` (the activation arrives from the
  previous stage);
- ``bwd(s, j)`` needs ``bwd(s+1, j)`` (the gradient arrives from the
  next stage) and ``fwd(s, j)``.

Two schedules are provided. **GPipe** runs all forwards as a wavefront,
then all backwards; its peak in-flight count per stage is the full
microbatch count. **1F1B** warms up with ``p-1-s`` forwards on stage
``s``, then strictly alternates one-backward/one-forward, draining the
pipeline with far fewer activations alive at once. Both execute every
micro's fwd exactly once and every bwd exactly once with per-stage
backward order ``0..m-1`` — and since the engine isolates microbatch
state (context dicts plus a per-micro stash of the stage's activation
caches), *any* valid schedule is numerically identical to running the
microbatches depth-first. The schedules differ only in activation
liveness — the engine holds exactly the in-flight micros' activations,
``min(m, p-s)`` per stage under 1F1B against ``m`` under GPipe — and
bubble structure, which is exactly what the telemetry layer measures.

Byte accounting: the activation crossing each stage boundary (and its
gradient, backward) moves through ``SimComm.send``.
:func:`boundary_nbytes` computes those payload sizes in closed form so
the process backend — whose workers run depth-first and never
materialize the send — can book identical wire bytes to the inline
schedule (asserted by the cross-backend differential tests).
"""

from __future__ import annotations

from typing import Iterator

__all__ = [
    "partition_stages",
    "gpipe_schedule",
    "one_f_one_b_schedule",
    "schedule_actions",
    "boundary_nbytes",
]

Action = tuple[str, int, int]  # ("fwd" | "bwd", stage, micro)


def partition_stages(n_ops: int, pp: int) -> list[tuple[int, int]]:
    """Split ``n_ops`` ops into ``pp`` contiguous near-equal stages.

    Returns ``[(start, stop), ...]`` per stage. Earlier stages take the
    remainder (matching the ring-chunk convention in the collectives).
    """
    if pp < 1:
        raise ValueError(f"pp must be >= 1, got {pp}")
    if pp > n_ops:
        raise ValueError(
            f"cannot partition {n_ops} pipeline ops into {pp} stages; "
            f"the model supports at most pp={n_ops}"
        )
    base, extra = divmod(n_ops, pp)
    bounds, start = [], 0
    for s in range(pp):
        size = base + (1 if s < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def gpipe_schedule(n_micro: int, pp: int) -> Iterator[Action]:
    """GPipe: forward wavefront over all micros, then backward wavefront.

    Forward clock ``c`` runs stage ``s`` on micro ``c - s`` (the
    diagonal fill/drain); backward mirrors it from the last stage.
    """
    for c in range(n_micro + pp - 1):
        for s in range(pp):
            j = c - s
            if 0 <= j < n_micro:
                yield ("fwd", s, j)
    for c in range(n_micro + pp - 1):
        for s in range(pp - 1, -1, -1):
            j = c - (pp - 1 - s)
            if 0 <= j < n_micro:
                yield ("bwd", s, j)


def one_f_one_b_schedule(n_micro: int, pp: int) -> Iterator[Action]:
    """1F1B: per-stage warmup forwards, then alternate bwd/fwd, then drain.

    Stage ``s`` runs ``min(m, p-1-s)`` warmup forwards before its first
    backward, then strictly alternates. Emitted as a global tick loop:
    each tick, every stage (deepest first) runs its next ready action,
    readiness tracked against the dependency rules above.
    """
    if pp < 1:
        raise ValueError(f"pp must be >= 1, got {pp}")
    fwd_done = [0] * pp  # per stage: micros forwarded so far
    bwd_done = [0] * pp  # per stage: micros backwarded so far
    warmup = [min(n_micro, pp - 1 - s) for s in range(pp)]
    total = 2 * n_micro * pp
    emitted = 0
    while emitted < total:
        progressed = False
        # Deepest stage first so a bwd frees its upstream in the same tick.
        for s in range(pp - 1, -1, -1):
            j = bwd_done[s]
            bwd_ready = (
                j < n_micro
                and fwd_done[s] > j
                and (s == pp - 1 or bwd_done[s + 1] > j)
            )
            # After warmup[s] + j + 1 forwards, the next action is bwd j
            # (the strict one-backward/one-forward alternation).
            prefer_bwd = fwd_done[s] >= min(n_micro, warmup[s] + j + 1)
            if bwd_ready and prefer_bwd:
                yield ("bwd", s, j)
                bwd_done[s] += 1
                emitted += 1
                progressed = True
                continue
            i = fwd_done[s]
            if i < n_micro and (s == 0 or fwd_done[s - 1] > i):
                yield ("fwd", s, i)
                fwd_done[s] += 1
                emitted += 1
                progressed = True
            elif bwd_ready:
                yield ("bwd", s, j)
                bwd_done[s] += 1
                emitted += 1
                progressed = True
        if not progressed:  # pragma: no cover - schedule invariant
            raise RuntimeError("1F1B schedule deadlocked")


def schedule_actions(name: str, n_micro: int, pp: int) -> list[Action]:
    """Materialize the named schedule and verify its invariants."""
    if name == "gpipe":
        actions = list(gpipe_schedule(n_micro, pp))
    elif name == "1f1b":
        actions = list(one_f_one_b_schedule(n_micro, pp))
    else:
        raise ValueError(f"unknown pipeline schedule {name!r}")
    _check_schedule(actions, n_micro, pp)
    return actions


def _check_schedule(actions: list[Action], n_micro: int, pp: int) -> None:
    """Assert dependency order and exactly-once execution."""
    fwd_seen: set[tuple[int, int]] = set()
    bwd_seen: set[tuple[int, int]] = set()
    for kind, s, j in actions:
        if kind == "fwd":
            if (s, j) in fwd_seen:
                raise RuntimeError(f"fwd({s},{j}) scheduled twice")
            if s > 0 and (s - 1, j) not in fwd_seen:
                raise RuntimeError(f"fwd({s},{j}) before fwd({s - 1},{j})")
            fwd_seen.add((s, j))
        else:
            if (s, j) in bwd_seen:
                raise RuntimeError(f"bwd({s},{j}) scheduled twice")
            if (s, j) not in fwd_seen:
                raise RuntimeError(f"bwd({s},{j}) before fwd({s},{j})")
            if s < pp - 1 and (s + 1, j) not in bwd_seen:
                raise RuntimeError(f"bwd({s},{j}) before bwd({s + 1},{j})")
            bwd_seen.add((s, j))
    expect = {(s, j) for s in range(pp) for j in range(n_micro)}
    if fwd_seen != expect or bwd_seen != expect:
        raise RuntimeError("schedule did not execute every (stage, micro) once")


def boundary_nbytes(
    ops: list, bounds: list[tuple[int, int]], batch: int, itemsize: int
) -> list[int]:
    """Payload bytes of each stage boundary's activation tensor.

    ``bounds`` is the :func:`partition_stages` result; boundary ``s``
    carries the output of the last op of stage ``s`` (shape from the
    op's ``out_shape``). The same payload crosses back as a gradient,
    so one micro moves ``2 * sum(boundary_nbytes)`` bytes total.
    """
    sizes = []
    for s in range(len(bounds) - 1):
        last_op = ops[bounds[s][1] - 1]
        shape = last_op.out_shape(batch)
        n = 1
        for dim in shape:
            n *= dim
        sizes.append(n * itemsize)
    return sizes
