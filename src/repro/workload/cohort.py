"""Cohort detection: canonical structural signatures of thread programs.

The paper's parallel regions are overwhelmingly *homogeneous*: the 256
chunk threads of Threat Analysis run the same program over different
threat ranges, the sync-variable variant's thousand threads all do
``scan; append-under-lock``, and Terrain Masking's workers all run the
same queue-pop loop.  A set of threads whose programs are structurally
identical -- same item sequence, same lock names, no cross-thread
synchronization other than the region barrier and per-item
:class:`~repro.workload.task.Critical` sections -- is a **cohort** and
can be simulated as one vectorized timeline (see
:mod:`repro.des.batch`) instead of one DES process per thread.

A program's *signature* captures exactly the structure the machine
models dispatch on: the ordered item kinds, the lock name of each
critical section, and whether each phase carries internal parallelism.
Phase magnitudes (op counts, footprints, trip counts) are deliberately
excluded -- cohort threads may be arbitrarily imbalanced, only their
shape must match.

The module also resolves the one engine setting
(:func:`resolve_engine`) that decides whether cohorts take the fast
path at all.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.workload.task import (
    Compute,
    Critical,
    ParallelRegion,
    ThreadProgram,
    WorkQueueRegion,
)

#: The engines that run the one timing model: the cohort engine with
#: its closed-form layers (the default), the cohort engine event-
#: stepping every thread, and pure DES (the oracle).
ENGINES = ("closed", "stepped", "des")
#: the one environment setting that picks among :data:`ENGINES`
ENGINE_ENV = "REPRO_ENGINE"
#: retired switches, rejected so a stale setting cannot silently run
#: the default engine
_RETIRED_ENV = ("REPRO_NO_COHORT", "REPRO_FORCE_CLOSED_FORM")


def resolve_engine(engine: Optional[str] = None) -> str:
    """The engine to run: ``engine`` if given, else ``REPRO_ENGINE``
    (unset or empty means ``closed``).  Raises ValueError on an unknown
    value or a retired switch in the environment."""
    for name in _RETIRED_ENV:
        if name in os.environ:
            raise ValueError(f"{name} is retired; set {ENGINE_ENV}="
                             f"{'|'.join(ENGINES)} instead")
    if engine is None:
        engine = os.environ.get(ENGINE_ENV) or "closed"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} ({ENGINE_ENV} must "
                         f"be one of {', '.join(ENGINES)})")
    return engine


ItemSignature = tuple[str, Optional[str], bool]


def item_signature(item: Union[Compute, Critical]) -> ItemSignature:
    """``(kind, lock_name, fine_grained)`` for one thread item."""
    if isinstance(item, Compute):
        return ("compute", None, item.phase.parallelism > 1)
    if isinstance(item, Critical):
        return ("critical", item.lock, item.phase.parallelism > 1)
    raise TypeError(f"unknown thread item {item!r}")


def program_signature(program: ThreadProgram) -> tuple[ItemSignature, ...]:
    """The ordered item signatures of one thread's program.

    Not memoized: a memo keyed by program identity must hold every
    program it sees, and with it the job trees of universes their data
    set has dropped, to save about 0.03 s of a cold registry run.
    """
    return tuple(item_signature(it) for it in program.items)


def region_cohort_signature(
        region: ParallelRegion) -> Optional[tuple[ItemSignature, ...]]:
    """The region's shared program signature, or None if heterogeneous.

    A :class:`ParallelRegion` forms a cohort only when every thread
    runs the same program shape; threads that differ in item order,
    lock names or fine-grained structure must keep their individual
    DES processes.
    """
    threads = region.threads
    sig = program_signature(threads[0])
    for th in threads[1:]:
        if program_signature(th) != sig:
            return None
    return sig


def region_phases(region: Union[ParallelRegion, WorkQueueRegion]):
    """Every phase appearing in the region, in program order."""
    if isinstance(region, ParallelRegion):
        for th in region.threads:
            for it in th.items:
                yield it.phase
    else:
        for item in region.items:
            for it in item.items:
                yield it.phase
