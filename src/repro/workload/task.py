"""Thread programs, parallel regions and whole jobs.

The grammar::

    Job            := [ SerialStep | ParallelRegion | WorkQueueRegion ]*
    SerialStep     := Phase                      (runs on one thread)
    ParallelRegion := [ ThreadProgram ]*         (static partition)
    WorkQueueRegion:= n_threads x shared queue of WorkItems  (dynamic)
    ThreadProgram  := [ Compute(Phase) | Critical(lock, Phase) ]*

This is rich enough to express every program version in the paper:

* the sequential programs: a Job of SerialSteps;
* chunked Threat Analysis (Program 2): one ParallelRegion whose threads
  are the chunks;
* blocked Terrain Masking (Program 4): a WorkQueueRegion whose items are
  threats and whose per-item program ends in Critical sections on the
  per-block locks;
* fine-grained Tera variants: phases with ``parallelism > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.workload.ops import OpCounts
from repro.workload.phase import Phase


@dataclass(frozen=True, slots=True)
class Compute:
    """Uncontended execution of a phase."""

    phase: Phase


@dataclass(frozen=True, slots=True)
class Critical:
    """Execution of a phase while holding the named lock."""

    lock: str
    phase: Phase


ThreadItem = Union[Compute, Critical]


@dataclass(frozen=True, slots=True)
class ThreadProgram:
    """One thread's work: an ordered list of items."""

    name: str
    items: tuple[ThreadItem, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        for it in self.items:
            if not isinstance(it, (Compute, Critical)):
                raise TypeError(f"bad thread item {it!r}")

    @property
    def total_ops(self) -> OpCounts:
        out = OpCounts()
        for it in self.items:
            out = out + it.phase.ops
        return out

    @property
    def phases(self) -> list[Phase]:
        return [it.phase for it in self.items]


@dataclass(frozen=True, slots=True)
class WorkItem:
    """A unit of dynamically scheduled work (e.g. one threat)."""

    name: str
    items: tuple[ThreadItem, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True, slots=True)
class SerialStep:
    """A phase executed by a single thread between parallel regions."""

    phase: Phase


@dataclass(frozen=True, slots=True)
class ParallelRegion:
    """A statically partitioned parallel region (one thread per entry).

    ``thread_kind`` selects the creation-cost row of the platform cost
    table: ``"os"`` (kernel threads on the SMPs), ``"sw"`` (Tera
    software threads / futures), ``"hw"`` (Tera compiler-created
    hardware streams).
    """

    threads: tuple[ThreadProgram, ...]
    thread_kind: str = "os"

    def __post_init__(self) -> None:
        object.__setattr__(self, "threads", tuple(self.threads))
        if not self.threads:
            raise ValueError("parallel region needs at least one thread")
        if self.thread_kind not in ("os", "sw", "hw"):
            raise ValueError(
                f"unknown thread kind {self.thread_kind!r}; "
                f"expected one of 'os', 'sw', 'hw'")

    @property
    def n_threads(self) -> int:
        return len(self.threads)


@dataclass(frozen=True, slots=True)
class WorkQueueRegion:
    """A dynamically scheduled parallel region.

    ``n_threads`` workers repeatedly pull the next :class:`WorkItem`
    from a shared FIFO queue until it is empty -- the "while
    (unprocessed threats)" loop of Program 4.
    """

    items: tuple[WorkItem, ...]
    n_threads: int
    thread_kind: str = "os"

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.thread_kind not in ("os", "sw", "hw"):
            raise ValueError(
                f"unknown thread kind {self.thread_kind!r}; "
                f"expected one of 'os', 'sw', 'hw'")


JobStep = Union[SerialStep, ParallelRegion, WorkQueueRegion]


@dataclass(frozen=True, slots=True)
class Job:
    """A complete benchmark run: serial steps and parallel regions."""

    name: str
    steps: tuple[JobStep, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        for s in self.steps:
            if not isinstance(s, (SerialStep, ParallelRegion,
                                  WorkQueueRegion)):
                raise TypeError(f"bad job step {s!r}")

    @property
    def total_ops(self) -> OpCounts:
        """Aggregate op counts over every step and thread."""
        out = OpCounts()
        for step in self.steps:
            if isinstance(step, SerialStep):
                out = out + step.phase.ops
            elif isinstance(step, ParallelRegion):
                for th in step.threads:
                    out = out + th.total_ops
            else:
                for item in step.items:
                    for it in item.items:
                        out = out + it.phase.ops
        return out

    @property
    def max_parallel_threads(self) -> int:
        """Widest parallel region in the job."""
        widths = [1]
        for step in self.steps:
            if isinstance(step, ParallelRegion):
                widths.append(step.n_threads)
            elif isinstance(step, WorkQueueRegion):
                widths.append(step.n_threads)
        return max(widths)
