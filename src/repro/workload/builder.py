"""Fluent builders for thread programs and jobs.

The C3I workload generators construct hundreds of thread programs; the
builders keep that code readable::

    prog = (ThreadProgramBuilder("chunk-3")
            .compute("scan", ops=OpCounts(ialu=1e6, load=3e5),
                     unique_bytes=64e3)
            .critical("intervals-lock", "append",
                      ops=OpCounts(store=100, sync=2))
            .build())
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.workload.ops import OpCounts, SharedAccess
from repro.workload.phase import AccessPattern, MemoryProfile, Phase
from repro.workload.task import (
    Compute,
    Critical,
    Job,
    ParallelRegion,
    SerialStep,
    ThreadItem,
    ThreadProgram,
    WorkItem,
    WorkQueueRegion,
)


#: Bit-exact interning tables for the two payloads every phase carries.
#: A registry job tree holds tens of thousands of phases but only a few
#: thousand distinct op-count vectors and footprints, so phases built
#: from equal payloads share one instance.  Keys are the packed IEEE
#: bits of all-float payloads, so ``0.0`` and ``-0.0`` never merge and
#: neither do ints with floats (the store fingerprints floats by
#: ``float.hex``); payloads holding a NaN or a non-float are never
#: interned.  Each table is cleared when full, which only stops
#: further sharing.
_SHARED_OPS: dict[bytes, OpCounts] = {}
_SHARED_MEMORY: dict[tuple[AccessPattern, bytes], MemoryProfile] = {}
_SHARED_MAX = 1 << 14
_PACK_OPS = struct.Struct("<6d").pack
_PACK_MEMORY = struct.Struct("<3d").pack


def _bits(pack: Callable[..., bytes], *values: float) -> bytes | None:
    """The packed IEEE bits of all-float, NaN-free ``values``, else
    None (such a payload is not interned)."""
    for v in values:
        if v.__class__ is not float or v != v:
            return None
    return pack(*values)


def _shared_ops(ops: OpCounts) -> OpCounts:
    """The interned instance bit-identical to ``ops`` (or ``ops``)."""
    if ops.__class__ is not OpCounts:
        return ops
    key = _bits(_PACK_OPS, ops.ialu, ops.falu, ops.load, ops.store,
                ops.branch, ops.sync)
    if key is None:
        return ops
    hit = _SHARED_OPS.get(key)
    if hit is None:
        if len(_SHARED_OPS) >= _SHARED_MAX:
            _SHARED_OPS.clear()
        hit = _SHARED_OPS[key] = ops
    return hit


def _shared_memory(unique_bytes: float, pattern: AccessPattern,
                   shared_fraction: float,
                   access_bytes: float) -> MemoryProfile:
    """The interned MemoryProfile with exactly these fields."""
    bits = _bits(_PACK_MEMORY, unique_bytes, shared_fraction,
                 access_bytes)
    if bits is None:
        return MemoryProfile(unique_bytes, pattern, shared_fraction,
                             access_bytes)
    key = (pattern, bits)
    hit = _SHARED_MEMORY.get(key)
    if hit is None:
        if len(_SHARED_MEMORY) >= _SHARED_MAX:
            _SHARED_MEMORY.clear()
        hit = _SHARED_MEMORY[key] = MemoryProfile(
            unique_bytes, pattern, shared_fraction, access_bytes)
    return hit


def make_phase(name: str, ops: OpCounts,
               unique_bytes: float = 0.0,
               pattern: AccessPattern = AccessPattern.SEQUENTIAL,
               shared_fraction: float = 0.0,
               access_bytes: float = 8.0,
               parallelism: float = 1.0,
               serial_cycles: float = 0.0,
               accesses: tuple[SharedAccess, ...] = ()) -> Phase:
    """Convenience constructor assembling a Phase and its MemoryProfile.

    Bit-identical op counts and memory profiles are shared between the
    phases this builds (see ``_SHARED_OPS``)."""
    return Phase(
        name=name,
        ops=_shared_ops(ops),
        memory=_shared_memory(unique_bytes, pattern, shared_fraction,
                              access_bytes),
        parallelism=parallelism,
        serial_cycles=serial_cycles,
        accesses=accesses,
    )


class ThreadProgramBuilder:
    """Accumulates thread items and produces a ThreadProgram."""

    def __init__(self, name: str):
        self.name = name
        self._items: list[ThreadItem] = []

    def compute(self, name: str, ops: OpCounts, **phase_kwargs: object
                ) -> "ThreadProgramBuilder":
        self._items.append(Compute(make_phase(name, ops, **phase_kwargs)))
        return self

    def phase(self, phase: Phase) -> "ThreadProgramBuilder":
        self._items.append(Compute(phase))
        return self

    def critical(self, lock: str, name: str, ops: OpCounts,
                 **phase_kwargs: object) -> "ThreadProgramBuilder":
        self._items.append(
            Critical(lock, make_phase(name, ops, **phase_kwargs)))
        return self

    def critical_phase(self, lock: str, phase: Phase
                       ) -> "ThreadProgramBuilder":
        self._items.append(Critical(lock, phase))
        return self

    def build(self) -> ThreadProgram:
        return ThreadProgram(self.name, tuple(self._items))

    def build_work_item(self) -> WorkItem:
        return WorkItem(self.name, tuple(self._items))


class JobBuilder:
    """Accumulates job steps and produces a Job."""

    def __init__(self, name: str):
        self.name = name
        self._steps: list[object] = []

    def serial(self, name: str, ops: OpCounts, **phase_kwargs: object
               ) -> "JobBuilder":
        self._steps.append(SerialStep(make_phase(name, ops, **phase_kwargs)))
        return self

    def serial_phase(self, phase: Phase) -> "JobBuilder":
        self._steps.append(SerialStep(phase))
        return self

    def parallel(self, threads: list[ThreadProgram],
                 thread_kind: str = "os") -> "JobBuilder":
        self._steps.append(ParallelRegion(tuple(threads), thread_kind))
        return self

    def work_queue(self, items: list[WorkItem], n_threads: int,
                   thread_kind: str = "os") -> "JobBuilder":
        self._steps.append(
            WorkQueueRegion(tuple(items), n_threads, thread_kind))
        return self

    def build(self) -> Job:
        return Job(self.name, tuple(self._steps))


def single_thread_job(name: str, phases: list[Phase]) -> Job:
    """A purely sequential job from a list of phases."""
    return Job(name, tuple(SerialStep(p) for p in phases))
