"""Deterministic discrete-event engine (list scheduling over streams).

The simulated device executes tasks on named *resources* (streams): a
``compute`` stream, a ``comm`` stream, etc. Each resource runs its tasks
in submission order (FIFO, non-preemptive, like a GPU stream); a task
starts when its resource is free *and* all its dependencies have
finished. This is exactly the execution model of one CUDA/HIP device with
events between streams, which is what FSDP's overlap behaviour lives on.

The engine is O(n log n)-free by construction: a single pass in submission
order computes all start times because FIFO resources make ``start =
max(resource_available, deps_done)`` well-defined without global event
queues.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Task", "Timeline", "ScheduledTask"]


@dataclass(frozen=True)
class Task:
    """One unit of work bound to a resource.

    ``kind`` onward say what the work is (``"comm"``, ``"compute"``,
    ``"optim"``, ``"stall"``, ``"contention"``), for a replay as telemetry
    (:meth:`repro.perf.schedule.StepSchedule.record`).
    """

    name: str
    resource: str
    duration: float
    deps: tuple[int, ...] = ()
    kind: str = ""
    op: str = ""
    axis: str = ""
    bytes: float = 0.0
    calls: int = 0
    flops: float = 0.0

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"task {self.name}: negative duration {self.duration}")


@dataclass(frozen=True)
class ScheduledTask:
    task: Task
    start: float
    end: float


@dataclass
class Timeline:
    """Builds and schedules a task graph."""

    tasks: list[Task] = field(default_factory=list)

    def add(self, name: str, resource: str, duration: float, deps=(), **what) -> int:
        """Append a task; returns its id for use in later ``deps``.
        ``what`` sets the :class:`Task` fields after ``deps``."""
        for d in deps:
            if not 0 <= d < len(self.tasks):
                raise ValueError(
                    f"task {name}: dependency {d} does not exist yet "
                    f"(tasks must be added after their dependencies)"
                )
        self.tasks.append(Task(name, resource, float(duration), tuple(deps), **what))
        return len(self.tasks) - 1

    def run(self) -> list[ScheduledTask]:
        """Schedule all tasks; FIFO per resource, dependency-respecting."""
        resource_free: dict[str, float] = {}
        ends: list[float] = []
        out: list[ScheduledTask] = []
        for t in self.tasks:
            deps_done = max((ends[d] for d in t.deps), default=0.0)
            start = max(resource_free.get(t.resource, 0.0), deps_done)
            end = start + t.duration
            resource_free[t.resource] = end
            ends.append(end)
            out.append(ScheduledTask(task=t, start=start, end=end))
        return out

    def makespan(self) -> float:
        """Total time from 0 to the last task's end."""
        sched = self.run()
        return max((s.end for s in sched), default=0.0)

    def busy_time(self, resource: str) -> float:
        """Sum of task durations on one resource."""
        return sum(t.duration for t in self.tasks if t.resource == resource)
