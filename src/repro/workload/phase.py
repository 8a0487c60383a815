"""Compute phases: operation mix + memory locality + internal parallelism."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.workload.ops import OpCounts, SharedAccess


class AccessPattern(enum.Enum):
    """Coarse classification of a phase's memory reference stream.

    Conventional-machine cache models use this to decide how much line
    reuse the phase enjoys:

    * ``SEQUENTIAL`` -- unit-stride sweeps; every byte of a fetched line
      is consumed, so the miss traffic equals the data actually touched.
    * ``STRIDED`` -- regular non-unit strides; roughly half of each
      fetched line is wasted.
    * ``RANDOM`` -- pointer chasing / scattered indexing; a full line is
      fetched per reference.
    """

    SEQUENTIAL = "sequential"
    STRIDED = "strided"
    RANDOM = "random"


#: Line-traffic amplification applied when a phase misses cache:
#: fraction of each fetched line that is wasted motion.
PATTERN_AMPLIFICATION = {
    AccessPattern.SEQUENTIAL: 1.0,
    AccessPattern.STRIDED: 2.0,
    AccessPattern.RANDOM: 4.0,
}


@dataclass(frozen=True, slots=True)
class MemoryProfile:
    """Locality descriptor for one phase.

    ``unique_bytes`` is the phase's footprint (distinct bytes touched);
    the op counts give the total bytes referenced.  A machine's cache
    model combines the two: a footprint that fits in cache costs only
    compulsory traffic, one that does not streams from memory.
    """

    unique_bytes: float = 0.0
    pattern: AccessPattern = AccessPattern.SEQUENTIAL
    #: Fraction of references that hit data written by a *different*
    #: thread (coherence/communication traffic); always misses on SMPs.
    shared_fraction: float = 0.0
    #: Bytes moved per memory reference on a cached machine -- 8 for
    #: double-precision data, 2 for the int16 elevation grids of the
    #: Terrain Masking benchmark.  (The MTA always transfers full
    #: words; its network model counts references, not bytes.)
    access_bytes: float = 8.0

    def __post_init__(self) -> None:
        if self.unique_bytes < 0:
            raise ValueError("unique_bytes must be >= 0")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ValueError("shared_fraction must be in [0, 1]")
        if self.access_bytes <= 0:
            raise ValueError("access_bytes must be positive")


@dataclass(frozen=True, slots=True)
class Phase:
    """A straight-line chunk of one thread's execution.

    ``parallelism`` is the phase's *internal* concurrency: the number of
    independent strands a machine with cheap fine-grained threading (the
    Tera MTA) can extract.  Conventional machines run the phase on one
    processor unless it is explicitly split; the MTA machine lets the
    phase occupy up to ``parallelism`` hardware streams.

    ``serial_cycles`` is unoverlappable latency on the phase's critical
    path (e.g. the ring-by-ring wavefront in Terrain Masking: each ring
    must finish before the next starts, so ``n_rings * ring_start``
    cycles can never be hidden however many streams are available).

    ``accesses`` records which *shared* arrays the phase reads and
    writes, with element ranges where the workload knows them (see
    :class:`~repro.workload.ops.SharedAccess`).  The machine models
    ignore it; the race detector in :mod:`repro.analysis` is its
    consumer.
    """

    name: str
    ops: OpCounts = field(default_factory=OpCounts)
    memory: MemoryProfile = field(default_factory=MemoryProfile)
    parallelism: float = 1.0
    serial_cycles: float = 0.0
    accesses: tuple[SharedAccess, ...] = ()

    def __post_init__(self) -> None:
        if self.parallelism < 1.0:
            raise ValueError("parallelism must be >= 1")
        if self.serial_cycles < 0:
            raise ValueError("serial_cycles must be >= 0")
        object.__setattr__(self, "accesses", tuple(self.accesses))
        for a in self.accesses:
            if not isinstance(a, SharedAccess):
                raise TypeError(f"bad shared access {a!r}")

    def scaled(self, k: float) -> "Phase":
        """The same phase with ``k`` times the work (footprint unchanged)."""
        return replace(self, ops=self.ops * k,
                       serial_cycles=self.serial_cycles * k)

    def split(self, n: int) -> list["Phase"]:
        """Divide the phase into ``n`` equal slices (for explicit chunking
        on machines without fine-grained threads).  Each slice gets a
        proportional share of the ops *and* of the memory footprint --
        chunking a sweep over an array gives each thread its own
        subarray, not the whole thing."""
        if n < 1:
            raise ValueError("n must be >= 1")
        slice_ops = self.ops * (1.0 / n)
        slice_memory = replace(self.memory,
                               unique_bytes=self.memory.unique_bytes / n)
        return [
            replace(self, name=f"{self.name}[{i}/{n}]", ops=slice_ops,
                    memory=slice_memory,
                    parallelism=max(1.0, self.parallelism / n),
                    serial_cycles=self.serial_cycles / n)
            for i in range(n)
        ]
