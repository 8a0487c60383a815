"""Deterministic discrete-event simulation kernel.

This package is the substrate on which every machine model in
:mod:`repro` runs.  It provides a small, fully deterministic,
generator-based process model:

* :class:`~repro.des.simulator.Simulator` -- the event loop.
* :class:`~repro.des.events.Event`, :class:`~repro.des.events.Timeout`,
  :class:`~repro.des.events.AllOf`, :class:`~repro.des.events.AnyOf` --
  the things processes wait on.
* :class:`~repro.des.process.Process` -- a generator turned into a
  simulated thread of control.
* :class:`~repro.des.resources.Resource` -- a k-server FIFO resource.
* :class:`~repro.des.resources.FairShareServer` -- a generalized
  processor-sharing server with an optional per-customer rate cap.  This
  is the primitive used to model both shared memory buses and the Tera
  MTA's instruction-issue slots.
* :mod:`~repro.des.sync` -- locks, barriers, semaphores.
* :mod:`~repro.des.batch` -- batch replay of homogeneous thread
  cohorts (the machines' fast path around per-thread processes).
* :mod:`~repro.des.store` -- FIFO item stores (work queues).
* :mod:`~repro.des.monitor` -- time-series instrumentation.

Determinism: ties in the event heap are broken by insertion order, and
nothing in the kernel consults a random source, so a simulation is a
pure function of its inputs.
"""

from repro.des.batch import CohortEngine
from repro.des.errors import (DeadlockDiagnostic, DesError, Interrupt,
                              SimulationDeadlock)
from repro.des.events import AllOf, AnyOf, Event, Timeout, WaitEvent
from repro.des.process import Process
from repro.des.resources import FairShareServer, Request, Resource
from repro.des.simulator import Simulator
from repro.des.store import Store
from repro.des.sync import FullEmptyCell, SimBarrier, SimLock, SimSemaphore
from repro.des.monitor import Monitor, TimeSeries

__all__ = [
    "AllOf",
    "AnyOf",
    "CohortEngine",
    "DeadlockDiagnostic",
    "DesError",
    "Event",
    "FairShareServer",
    "FullEmptyCell",
    "Interrupt",
    "Monitor",
    "Process",
    "Request",
    "Resource",
    "SimBarrier",
    "SimLock",
    "SimSemaphore",
    "SimulationDeadlock",
    "Simulator",
    "Store",
    "TimeSeries",
    "Timeout",
    "WaitEvent",
]
