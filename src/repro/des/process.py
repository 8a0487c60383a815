"""Generator-based simulated processes.

A :class:`Process` wraps a Python generator.  The generator ``yield``s
:class:`~repro.des.events.Event` instances (or other processes, which
are themselves events); the simulator resumes the generator with the
event's value when it fires, or throws the event's failure exception
into it.

A process is itself an event -- it fires, with the generator's return
value, when the generator finishes.  This makes fork/join trivial::

    def child(sim):
        yield sim.timeout(5)
        return 42

    def parent(sim):
        p = sim.process(child(sim))
        result = yield p        # joins; result == 42
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Generator, Optional

from repro.des.errors import DesError, Interrupt
from repro.des.events import Event, _internal_event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.simulator import Simulator

ProcessGenerator = Generator[Event, object, object]


class Process(Event):
    """A simulated thread of control (and its completion event)."""

    __slots__ = ("generator", "name", "_waiting_on", "tid")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise TypeError(
                f"process body must be a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        #: index into ``sim.processes`` -- the trace thread id, and the
        #: handle deadlock diagnostics use to walk live waiters
        self.tid = len(sim.processes)
        sim.processes.append(self)
        tr = sim.trace
        if tr is not None:
            tr.thread_start(self.tid, sim.now, self.name)
        # Bootstrap: resume the generator at time now, as soon as the
        # event loop gets control.  (sim._enqueue inlined: one process
        # is created per simulated thread.)
        _heappush(sim._heap,
                  (sim.now, 0, sim._seq, _internal_event(sim, self._resume)))
        sim._seq += 1

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process must currently be waiting on an event; the event it
        was waiting on is left untouched (it may still fire later, but
        this process will no longer react to it).
        """
        if self.triggered:
            raise DesError(f"{self.name}: cannot interrupt a dead process")
        if self._waiting_on is None:
            raise DesError(f"{self.name}: process is not waiting on anything")
        target = self._waiting_on
        if target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._waiting_on = None
        kick = Event(self.sim)
        kick.callbacks.append(
            lambda _ev: self._step(throw=Interrupt(cause)))
        kick.succeed(None, priority=0)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Callback attached to whatever event this process waits on."""
        self._waiting_on = None
        tr = self.sim.trace
        if tr is not None:
            tr.unblock(self.tid, self.sim.now)
        if event._exc is not None:
            event._mark_defused()
            self._step(throw=event._exc)
        else:
            self._step(send=event._value)

    def _step(self, send: object = None,
              throw: Optional[BaseException] = None) -> None:
        sim = self.sim
        sim._active_process = self
        try:
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            if sim.trace is not None:
                sim.trace.thread_end(self.tid, sim.now)
            return
        except BaseException as exc:
            self.fail(exc)
            if sim.trace is not None:
                sim.trace.thread_end(self.tid, sim.now, error=repr(exc))
            return
        finally:
            sim._active_process = None

        if not isinstance(target, Event):
            err = DesError(
                f"{self.name}: processes may only yield events, "
                f"got {target!r}")
            # Deliver the error into the generator so the stack trace
            # points at the offending yield.
            self._step(throw=err)
            return
        if target.sim is not self.sim:
            self._step(throw=DesError(
                f"{self.name}: yielded event from a different simulator"))
            return

        self._waiting_on = target
        if target.callbacks is None:  # already processed
            # Already fired: resume immediately (via a priority-0 event so
            # ordering relative to other immediate work stays FIFO).
            kick = _internal_event(self.sim,
                                   lambda _ev: self._resume(target))
            self.sim._enqueue(kick, priority=0)
        else:
            target.callbacks.append(self._resume)
            tr = sim.trace
            if tr is not None:
                tr.block(self.tid, sim.now, target)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = "done" if self.triggered else "alive"
        return f"<Process {self.name} {status}>"
