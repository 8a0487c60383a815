"""The Tera programming-system surface: futures, sync variables,
parallel loops.

This module is the model of what Section 2 of the paper lists as the
programming system: explicit thread creation with *futures*,
full/empty *synchronization variables*, and ``#pragma multithreaded``
parallel loops, with the MTA's cost structure (hardware-stream creation
2 cycles, software threads 50-100 cycles, synchronization 1 cycle).

Programs written against :class:`TeraRuntime` are DES process
generators; simulated time advances in MTA cycles.  The C3I fine-
grained program variants and several examples are expressed this way::

    rt = TeraRuntime()

    def producer(rt, cell):
        yield rt.cycles(100)          # compute something
        yield cell.write("result")    # full/empty write: 1 cycle

    def consumer(rt, cell):
        value = yield cell.read()     # blocks until full
        return value

    cell = rt.sync_variable()
    rt.future(producer, cell)
    f = rt.future(consumer, cell)
    rt.run()
    assert f.value() == "result"
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Optional

from repro.des import AllOf, Event, FullEmptyCell, Process, Simulator
from repro.mta.spec import MTA_2, MtaSpec


class SyncVariable:
    """A full/empty synchronization variable (``sync$`` in Tera C).

    Reads wait for full and set empty; writes wait for empty and set
    full.  Each access costs one cycle of simulated time -- the paper's
    "thread synchronization in one cycle".
    """

    def __init__(self, runtime: "TeraRuntime", value: object = None,
                 full: bool = False, name: str = "sync$"):
        self._rt = runtime
        self._cell = FullEmptyCell(runtime.sim, value=value, full=full,
                                   name=name)

    @property
    def is_full(self) -> bool:
        return self._cell.is_full

    def peek(self) -> object:
        return self._cell.peek()

    def read(self) -> Event:
        """Wait-until-full, read, set empty (plus the 1-cycle access)."""
        return self._rt._after_cost(self._cell.read_fe())

    def write(self, value: object) -> Event:
        """Wait-until-empty, write, set full (plus the 1-cycle access)."""
        return self._rt._after_cost(self._cell.write_ef(value))

    def read_ff(self) -> Event:
        """Wait-until-full, read, leave full."""
        return self._rt._after_cost(self._cell.read_ff())

    def reset(self, value: object = None, full: bool = False) -> None:
        """Reinitialise (the ``purge`` operation)."""
        self._cell.reset_empty()
        if full:
            self._cell._value = value
            self._cell._full = True


class Future:
    """An asynchronously executing body whose result can be touched.

    Created via :meth:`TeraRuntime.future`; touching (:meth:`get`)
    blocks the toucher until the body has returned -- implemented, as
    on the real machine, with a full/empty cell.
    """

    def __init__(self, runtime: "TeraRuntime", process: Process):
        self._rt = runtime
        self._process = process

    def get(self) -> Event:
        """Touch the future: an event carrying the body's return value."""
        if self._process.processed:
            done = Event(self._rt.sim)
            done.succeed(self._process.value)
            return self._rt._after_cost(done)
        return self._rt._after_cost(self._process)

    def value(self) -> object:
        """The result, once the simulation has run (raises if not done)."""
        return self._process.value

    @property
    def is_done(self) -> bool:
        return self._process.triggered


class TeraRuntime:
    """Executes explicitly multithreaded programs with MTA costs."""

    def __init__(self, spec: MtaSpec = MTA_2):
        self.spec = spec
        self.sim = Simulator()
        self._cycle_s = 1.0 / spec.clock_hz
        self._top_level: list[Process] = []

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def cycles(self, n: float) -> Event:
        """An event firing ``n`` MTA cycles from now."""
        return self.sim.timeout(n * self._cycle_s)

    @property
    def now_cycles(self) -> float:
        return self.sim.now / self._cycle_s

    def _after_cost(self, event: Event, cycles: float = 1.0) -> Event:
        """Chain the synchronization access cost after ``event``."""
        sim = self.sim
        out = Event(sim)

        def relay(ev: Event) -> None:
            if not ev.ok:
                ev._mark_defused()
                out.fail(ev._exc)
                return
            delayed = sim.timeout(cycles * self._cycle_s, value=ev._value)
            delayed.callbacks.append(
                lambda d: out.succeed(d._value))

        if event.processed:
            relay(event)
        else:
            event.callbacks.append(relay)
        return out

    # ------------------------------------------------------------------
    # threads
    # ------------------------------------------------------------------
    def sync_variable(self, value: object = None, full: bool = False,
                      name: str = "sync$") -> SyncVariable:
        return SyncVariable(self, value=value, full=full, name=name)

    def future(self, body: Callable[..., Generator], *args: object,
               name: Optional[str] = None) -> Future:
        """Spawn a software thread (future): 75-cycle creation cost."""
        return self._spawn(body, args, self.spec.costs_for("sw")
                           .create_cycles, name)

    def hw_thread(self, body: Callable[..., Generator], *args: object,
                  name: Optional[str] = None) -> Future:
        """Spawn a compiler-style hardware stream: 2-cycle creation."""
        return self._spawn(body, args, self.spec.costs_for("hw")
                           .create_cycles, name)

    def _spawn(self, body, args, create_cycles: float,
               name: Optional[str]) -> Future:
        def wrapper():
            yield self.cycles(create_cycles)
            result = yield from body(self, *args)
            return result

        p = self.sim.process(wrapper(), name=name or body.__name__)
        self._top_level.append(p)
        return Future(self, p)

    def parallel_for(self, indices: Iterable[int],
                     body: Callable[..., Generator],
                     thread_kind: str = "hw") -> Event:
        """``#pragma multithreaded`` loop: one thread per index.

        Returns an event firing when every iteration has finished.
        ``body(runtime, index)`` must be a process generator.
        """
        spawn = self.hw_thread if thread_kind == "hw" else self.future
        futures = [spawn(body, i, name=f"iter-{i}") for i in indices]
        return AllOf(self.sim, [f._process for f in futures])

    # ------------------------------------------------------------------
    def run(self, until: Optional[float | Event] = None) -> float:
        """Run the simulation; returns elapsed cycles."""
        self.sim.run(until)
        for p in self._top_level:
            if p.triggered and not p.ok:
                p.value  # re-raise
        return self.now_cycles

