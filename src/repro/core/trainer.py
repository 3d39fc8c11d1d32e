"""The pretraining loop, and the MAE objective that runs on it.

:class:`Pretrainer` owns the data order and the per-step noise, both
derived deterministically from the seed and the global step — *not* from
the rank — so the same run under any world size / sharding strategy sees
identical samples and masks. This is what makes the engine-equivalence
guarantees testable end-to-end. :class:`MAEPretrainer` (paper Section
V-B recipe, proxy scale) and
:class:`~repro.core.simclr_trainer.SimCLRPretrainer` are objectives on
that one loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from typing import Callable

import numpy as np

from repro.core.checkpoints import CheckpointManager
from repro.core.engine_core import EngineCore, StepFn
from repro.elastic.errors import ElasticCompatibilityError, PreemptedError
from repro.elastic.preemption import PreemptionToken
from repro.models.mae import MaskedAutoencoder
from repro.models.module import Module
from repro.models.workspace import Workspace
from repro.optim.schedules import CosineWithWarmup
from repro.telemetry import StepStats, TelemetryBus

__all__ = ["Pretrainer", "MAEPretrainer", "TrainResult"]

#: Steps of loss / LR history a trainer holds before its storage doubles.
_HISTORY_CAPACITY = 1024


@dataclass
class TrainResult:
    """Per-step records of one pretraining run."""

    losses: list[float] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    steps_per_epoch: int = 0

    @property
    def n_steps(self) -> int:
        """Number of recorded optimizer steps."""
        return len(self.losses)

    def epoch_means(self) -> np.ndarray:
        """Mean loss per epoch (trailing partial epoch included)."""
        if not self.losses or self.steps_per_epoch <= 0:
            return np.array([])
        arr = np.asarray(self.losses)
        n_full = len(arr) // self.steps_per_epoch
        means = [
            arr[i * self.steps_per_epoch : (i + 1) * self.steps_per_epoch].mean()
            for i in range(n_full)
        ]
        if len(arr) % self.steps_per_epoch:
            means.append(arr[n_full * self.steps_per_epoch :].mean())
        return np.asarray(means)


class Pretrainer:
    """The pretraining loop: drives an engine over an image corpus.

    Data order, augmentation / masking noise and the default schedule
    are pure functions of (seed, absolute step), never of the rank, so
    the same run under any world size or strategy row sees the same
    samples. An objective is a subclass supplying ``model_type``,
    ``step_fn`` (module-level: the process backend pickles it by
    reference) and :meth:`_batch`.

    A snapshot (``save_every``, :meth:`save_snapshot`) captures the rest
    of what the trajectory depends on — the engine state and the loss /
    LR history — so :meth:`resume` continues a preempted run exactly as
    if it had never stopped, in this world or in a resized one.

    Parameters
    ----------
    engine:
        Any :class:`~repro.core.engine_core.EngineCore` engine (DDP,
        FSDP or mesh) wrapping a ``model_type`` model.
    images:
        Pretraining corpus, ``(N, C, H, W)``.
    global_batch:
        Global batch size; must be divisible by the engine's
        ``data_parallel_size * grad_accum_steps``.
    schedule:
        Step -> learning rate. Defaults to the paper's recipe scaled to
        the run length (cosine, 10% warmup).
    seed:
        Controls shuffling and per-step noise only (weights were seeded
        at model construction).
    workspace:
        Attach a :class:`~repro.models.workspace.Workspace` to the model
        so steady-state steps reuse scratch buffers instead of
        allocating (numerics are unchanged). ``None`` takes the
        objective's default; skipped when the model already has one.
    checkpoint_dir:
        Directory for atomic training snapshots; enables
        :meth:`resume` and ``save_every``.
    save_every:
        Snapshot every this many optimizer steps (0 disables the
        cadence; explicit :meth:`save_snapshot`
        still works when a directory is set).
    keep:
        How many snapshots to retain (older ones are pruned).
    preemption:
        A :class:`~repro.elastic.preemption.PreemptionToken`; when it
        trips (signal) or arms (scheduler), the in-flight step drains, a
        final snapshot is written, and
        :class:`~repro.elastic.errors.PreemptedError` unwinds the run
        for the requeue driver.
    telemetry:
        Instrumentation bus; when given it is shared down into the
        engine (unless the engine already carries a live bus), and the
        trainer publishes per-step :class:`~repro.telemetry.StepStats`
        gauges (wall time, images/s, loss, lr). Defaults to the
        engine's bus.
    """

    model_type: type[Module]
    step_fn: StepFn
    #: Fewest samples a micro-batch may hold.
    min_micro = 1
    #: What ``workspace=None`` means for this objective.
    workspace_default = True

    def __init__(
        self,
        engine: EngineCore,
        images: np.ndarray,
        global_batch: int,
        schedule: Callable[[int], float] | None = None,
        seed: int = 0,
        workspace: bool | None = None,
        checkpoint_dir: str | None = None,
        save_every: int = 0,
        keep: int = 3,
        preemption: PreemptionToken | None = None,
        telemetry: TelemetryBus | None = None,
    ):
        name = type(self).__name__
        if images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got {images.shape}")
        n_micros = engine.data_parallel_size * engine.grad_accum_steps
        if global_batch % n_micros != 0:
            raise ValueError(
                f"global batch {global_batch} not divisible by data-parallel "
                f"size x grad_accum_steps = {n_micros}"
            )
        if global_batch // n_micros < self.min_micro:
            raise ValueError(
                f"{name} needs >= {self.min_micro} samples per micro-batch "
                "(in-batch negatives)"
            )
        if global_batch > len(images):
            raise ValueError(
                f"global batch {global_batch} exceeds corpus size {len(images)}"
            )
        if not isinstance(engine.model, self.model_type):
            raise TypeError(f"{name} requires a {self.model_type.__name__} model")
        if save_every < 0:
            raise ValueError(f"save_every must be non-negative, got {save_every}")
        if save_every and checkpoint_dir is None:
            raise ValueError("save_every requires a checkpoint_dir")
        self.engine = engine
        self.images = images
        self.global_batch = global_batch
        # Each step's batch, gathered in place (its micros are views).
        self._batch_images = np.empty((global_batch, *images.shape[1:]), images.dtype)
        self.schedule = schedule
        # The default schedule's peak, read before any restore moves it.
        self._peak_lr = engine.lr
        self.seed = seed
        self.steps_per_epoch = len(images) // global_batch
        self.checkpoints = (
            CheckpointManager(checkpoint_dir, keep=keep) if checkpoint_dir else None
        )
        self.save_every = save_every
        self.preemption = preemption
        # Loss / LR history: float64 rows allocated here and grown by
        # doubling, so a step stores no float object and a block never
        # copies a history that grows with the run.
        self._history = np.empty((2, _HISTORY_CAPACITY), np.float64)
        self._n_history = 0
        # An explicit bus wins, and is shared down into the engine unless
        # the engine already has a live one; otherwise inherit the engine's.
        if telemetry is not None and not engine.telemetry.enabled:
            engine.telemetry = telemetry
        self.telemetry = telemetry if telemetry is not None else engine.telemetry
        if workspace is None:
            workspace = self.workspace_default
        if workspace and engine.model.workspace is None:
            engine.model.use_workspace(Workspace())

    def _rng(self, salt: int, index: int) -> np.random.Generator:
        """The generator of ``(seed, salt, index)``: one per purpose
        (``salt``) and per epoch or absolute step (``index``)."""
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, salt, index]))
        )

    def _epoch_order(self, epoch: int) -> np.ndarray:
        return self._rng(7919, epoch).permutation(len(self.images))

    def _batch(self, imgs: np.ndarray, step: int) -> tuple[np.ndarray, ...]:
        """What ``step_fn`` consumes for the global batch ``imgs``:
        arrays whose equal row-slices are the micro-batches."""
        raise NotImplementedError

    def run(self, n_steps: int, start_step: int = 0) -> TrainResult:
        """Train for steps ``[start_step, start_step + n_steps)``.

        ``start_step`` resumes an interrupted run: the data order, the
        per-step noise and the schedule are pure functions of the
        absolute step, so restoring an engine snapshot and passing the
        saved step count continues the original trajectory exactly
        (tested).
        """
        if n_steps <= 0:
            raise ValueError(f"n_steps must be positive, got {n_steps}")
        if start_step < 0:
            raise ValueError(f"start_step must be non-negative, got {start_step}")
        engine = self.engine
        schedule = self.schedule
        if schedule is None:
            schedule = CosineWithWarmup(
                base_lr=self._peak_lr,
                total_steps=start_step + n_steps,
                warmup_steps=max(1, (start_step + n_steps) // 10),
            )
        # One micro slot per (accumulation round, data-parallel rank),
        # round-major — the same slicing a k-times-larger world would use
        # rank-major, which is what keeps fp32 accumulation bit-identical
        # across layouts. Mesh engines consume micros only along dp (tp
        # ranks share each micro; pp ranks split the model, not the data).
        n_micros = engine.data_parallel_size * engine.grad_accum_steps
        micro = self.global_batch // n_micros
        result = TrainResult(steps_per_epoch=self.steps_per_epoch)
        for step in range(start_step, start_step + n_steps):
            epoch, pos = divmod(step, self.steps_per_epoch)
            if pos == 0 or step == start_step:
                order = self._epoch_order(epoch)
            idx = order[pos * self.global_batch : (pos + 1) * self.global_batch]
            # images[idx] in place; "clip" never fires on a permutation.
            imgs = np.take(self.images, idx, axis=0, out=self._batch_images, mode="clip")
            batch = self._batch(imgs, step)
            micros = [
                tuple(a[m * micro : (m + 1) * micro] for a in batch)
                for m in range(n_micros)
            ]
            engine.lr = schedule(step)
            t0 = perf_counter()
            loss = engine.train_step(micros, self.step_fn)
            if self.telemetry.enabled:
                wall = perf_counter() - t0
                StepStats(
                    step=step,
                    wall_s=wall,
                    images_per_s=self.global_batch / wall if wall > 0 else 0.0,
                    loss=loss,
                    lr=engine.lr,
                ).emit(self.telemetry)
            result.losses.append(loss)
            result.lrs.append(engine.lr)
            self._record_step(step, loss, engine.lr)
        return result

    @property
    def _hist_losses(self) -> list[float]:
        """Every recorded step's loss."""
        return self._history[0, : self._n_history].tolist()

    @property
    def _hist_lrs(self) -> list[float]:
        """Every recorded step's learning rate."""
        return self._history[1, : self._n_history].tolist()

    def state_dict(self) -> dict:
        """Everything the trajectory depends on: engine + loss/LR history."""
        n = self._n_history
        return {
            "engine": self.engine.state_dict(),
            "history": {
                "losses": self._history[0, :n].copy(),
                "lrs": self._history[1, :n].copy(),
            },
        }

    def load_state_dict(self, sd: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (engine + history)."""
        self.engine.load_state_dict(sd["engine"])
        history = sd["history"]
        self._history = np.stack([history["losses"], history["lrs"]]).astype(np.float64)
        self._n_history = self._history.shape[1]

    def _record_step(self, step: int, loss: float, lr: float) -> None:
        """Append one step to the history; snapshot on the save cadence.

        This is also the preemption drain point: when the trainer's
        :class:`~repro.elastic.preemption.PreemptionToken` has tripped
        (signal) or armed (scheduler), the step that just completed is
        snapshotted — exactly once — and
        :class:`~repro.elastic.errors.PreemptedError` unwinds the run so
        a requeue driver can rebuild the next allocation.
        """
        n = self._n_history
        if n == self._history.shape[1]:
            more = np.empty((2, max(n, _HISTORY_CAPACITY)), np.float64)
            self._history = np.concatenate([self._history, more], axis=1)
        self._history[0, n] = loss
        self._history[1, n] = lr
        self._n_history = n + 1
        saved: str | None = None
        if self.checkpoints is not None and self.save_every:
            if (step + 1) % self.save_every == 0:
                saved = self.save_snapshot()
        tok = self.preemption
        if tok is not None and tok.should_preempt(step):
            if saved is None and self.checkpoints is not None:
                saved = self.save_snapshot()
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "elastic.preemptions", 1, reason=tok.reason or "unknown"
                )
            raise PreemptedError(step=step, checkpoint=saved)

    def save_snapshot(self) -> str:
        """Atomically snapshot the engine + history at the current step.

        The metadata records the engine topology (world size, strategy,
        shard size, reduction layout) so :meth:`resume` can reshard the
        snapshot into a differently-shaped world.
        """
        if self.checkpoints is None:
            raise ValueError("trainer was constructed without a checkpoint_dir")
        state = self.state_dict()
        meta = {
            "seed": self.seed,
            "global_batch": self.global_batch,
            "elastic": self.engine.topology(),
        }
        return self.checkpoints.save(state, step=self.engine.step_count, meta=meta)

    def resume(self, total_steps: int) -> TrainResult:
        """Train through absolute step ``total_steps``, restoring the
        latest valid snapshot first (corrupt ones are skipped).

        Every restore goes through
        :func:`~repro.elastic.reshard.reshard_trainer_state`: the
        identity when the snapshot has this engine's shape, a reshard
        when only the shape differs (same reduction layout and
        precision, so the fp32 trajectory continues bit-exact), and a
        typed :class:`~repro.elastic.errors.ElasticCompatibilityError`
        otherwise — as for a snapshot of another data stream or one
        without a topology record. Starts from scratch when no valid
        snapshot exists. Returns the *full* history (restored + newly
        trained), so an interrupted-and-resumed run compares 1:1 against
        an uninterrupted ``run(total_steps)``.
        """
        # Lazy: repro.elastic.reshard imports repro.core.
        from repro.elastic.reshard import (
            TopologySpec,
            engine_topology,
            reshard_trainer_state,
        )

        if self.checkpoints is None:
            raise ValueError("resume() requires a checkpoint_dir")
        if total_steps <= 0:
            raise ValueError(f"total_steps must be positive, got {total_steps}")
        start = 0
        loaded = self.checkpoints.latest_valid()
        if loaded is not None:
            state, meta, _ = loaded
            if meta.get("seed") != self.seed or meta.get("global_batch") != self.global_batch:
                raise ElasticCompatibilityError(
                    f"snapshot was taken with seed={meta.get('seed')}, "
                    f"global_batch={meta.get('global_batch')}; trainer has "
                    f"seed={self.seed}, global_batch={self.global_batch} — "
                    "no resume can reconcile a different data stream"
                )
            if "elastic" not in meta:
                raise ElasticCompatibilityError(
                    "snapshot predates topology records, so its sharding "
                    "shape is unknown and it cannot be restored safely"
                )
            src = TopologySpec.from_dict(meta["elastic"])
            dst = engine_topology(self.engine)
            self.load_state_dict(
                reshard_trainer_state(state, self.engine.model, src, dst)
            )
            start = self.engine.step_count
        if total_steps < start:
            raise ValueError(
                f"snapshot is already at step {start}, beyond total_steps {total_steps}"
            )
        if total_steps > start:
            self.run(total_steps - start, start_step=start)
        return TrainResult(
            losses=self._hist_losses,
            lrs=self._hist_lrs,
            steps_per_epoch=self.steps_per_epoch,
        )


def _mae_step_fn(model: MaskedAutoencoder, micro) -> float:
    imgs, noise = micro
    out = model.forward(imgs, noise=noise)
    model.backward()
    return out.loss


class MAEPretrainer(Pretrainer):
    """MAE pretraining (paper Section V-B recipe, proxy scale): a micro
    is ``(images, masking noise)``, the noise drawn per absolute step."""

    model_type = MaskedAutoencoder
    step_fn = staticmethod(_mae_step_fn)

    @cached_property
    def _noise(self) -> np.ndarray:
        """The resident array each step's masking noise is drawn into."""
        n_patches = self.engine.model.cfg.encoder.n_patches
        return np.empty((self.global_batch, n_patches), dtype=np.float64)

    def _batch(self, imgs: np.ndarray, step: int) -> tuple[np.ndarray, ...]:
        return imgs, self._rng(104729, step).random(out=self._noise)
