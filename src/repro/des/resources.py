"""Shared resources: FIFO k-server resources and fair-share servers.

Two contention models cover everything the machine simulators need:

* :class:`Resource` -- classic k-server with a FIFO queue.  Used for
  locks (k=1) and for exclusive hardware (e.g. an uncontended port).

* :class:`FairShareServer` -- generalized processor sharing (GPS): all
  active jobs progress simultaneously, each at rate
  ``min(per_customer_cap, capacity / n_active)``.  This is the natural
  model for a shared memory bus (jobs share total bandwidth) and for
  the Tera MTA's instruction issue slots (each hardware stream is
  capped at 1/21 of the clock; the processor aggregates to at most one
  instruction per cycle).  Completions are computed exactly -- no time
  slicing -- so the model is both fast and deterministic.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Optional

from repro.des.errors import DesError
from repro.des.events import Event, _internal_event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.simulator import Simulator

# Relative tolerance when deciding that a job's remaining work is zero.
_EPS = 1e-9

_INF = float("inf")


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Fires when the resource is granted.  Usable as a context manager so
    the resource is released even if the holder's code raises::

        with res.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource", "owner")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        #: the process that issued the request (None outside a process);
        #: lets deadlock diagnostics walk resource -> holder edges
        self.owner = resource.sim._active_process

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.resource.release(self)


class Resource:
    """A k-server resource with a FIFO wait queue."""

    __slots__ = ("sim", "capacity", "name", "_users", "_queue",
                 "total_waits", "total_wait_time", "_wait_started",
                 "max_queue_depth", "queue_depth_hist")

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._queue: list[Request] = []
        # simple contention statistics
        self.total_waits = 0
        self.total_wait_time = 0.0
        self._wait_started: dict[Request, float] = {}
        #: deepest the wait queue (lock convoy) ever got
        self.max_queue_depth = 0
        #: power-of-two histogram of queue depth seen by each
        #: contended request at enqueue time (depth 1, 2, 4, 8, ...)
        self.queue_depth_hist: dict[int, int] = {}

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self) -> Request:
        req = Request(self)
        tr = self.sim.trace
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed(req)
            if tr is not None:
                tr.acquire(self._owner_tid(req), self.sim.now, self.name)
        else:
            self.total_waits += 1
            depth = len(self._queue) + 1
            if depth > self.max_queue_depth:
                self.max_queue_depth = depth
            bucket = 1 << (depth.bit_length() - 1)
            self.queue_depth_hist[bucket] = (
                self.queue_depth_hist.get(bucket, 0) + 1)
            self._wait_started[req] = self.sim.now
            self._queue.append(req)
            if tr is not None:
                tr.enqueue(self._owner_tid(req), self.sim.now, self.name,
                           depth)
        return req

    @staticmethod
    def _owner_tid(req: Request) -> int:
        return req.owner.tid if req.owner is not None else -1

    def release(self, req: Request) -> None:
        if req in self._users:
            self._users.discard(req)
            tr = self.sim.trace
            if tr is not None:
                tr.release(self._owner_tid(req), self.sim.now, self.name)
        elif req in self._queue:  # cancelled before being granted
            self._queue.remove(req)
            self._wait_started.pop(req, None)
            return
        else:
            raise DesError(f"{self.name}: releasing a request never granted")
        while self._queue and len(self._users) < self.capacity:
            nxt = self._queue.pop(0)
            self.total_wait_time += self.sim.now - self._wait_started.pop(nxt)
            self._users.add(nxt)
            nxt.succeed(nxt)
            tr = self.sim.trace
            if tr is not None:
                tr.acquire(self._owner_tid(nxt), self.sim.now, self.name)


class _Job:
    __slots__ = ("remaining", "done", "enter_time", "cap", "ecap", "rate")

    def __init__(self, remaining: float, done: Event, enter_time: float,
                 cap: Optional[float], ecap: float):
        self.remaining = remaining
        self.done = done
        self.enter_time = enter_time
        self.cap = cap       # per-job rate limit (None -> server default)
        self.ecap = ecap     # effective cap as a float (inf if uncapped)
        self.rate = 0.0      # current allocation, set by _allocate()


class FairShareServer:
    """Generalized-processor-sharing server with per-customer rate cap.

    ``capacity`` is the aggregate service rate (work units per simulated
    time unit).  Rates are allocated by *water-filling*: capacity is
    shared equally, except that no job exceeds its rate cap, and the
    share a capped job cannot use is redistributed to the others.  With
    equal caps this reduces to ``min(cap, capacity / n_active)``.
    Allocations are recomputed exactly at every arrival and departure --
    no time slicing -- and ``submit(demand)`` returns an event that
    fires when the demand has been fully served.

    ``per_customer_cap`` is the default cap; ``submit(..., cap=...)``
    overrides it per job.  The MTA issue model uses ``capacity = clock``
    and a per-stream cap of ``clock / 21``, so a lone stream gets 1/21
    of the clock and ~21+ streams saturate the processor -- which is
    precisely the paper's single-thread utilization story.  A job
    representing a phase with internal parallelism ``p`` simply submits
    with ``cap = p * stream_rate``.
    """

    __slots__ = ("sim", "capacity", "per_customer_cap", "name", "_jobs",
                 "_last_update", "_wakeup", "_wakeup_valid",
                 "_flush_pending", "_flush_callbacks", "total_served",
                 "busy_time")

    def __init__(self, sim: "Simulator", capacity: float,
                 per_customer_cap: Optional[float] = None,
                 name: str = "fairshare"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if per_customer_cap is not None and per_customer_cap <= 0:
            raise ValueError("per_customer_cap must be positive")
        self.sim = sim
        self.capacity = float(capacity)
        self.per_customer_cap = (
            float(per_customer_cap) if per_customer_cap is not None else None)
        self.name = name
        self._jobs: list[_Job] = []
        self._last_update = sim.now
        self._wakeup: Optional[Event] = None
        self._wakeup_valid = False
        self._flush_pending = False
        # One shared callback list for every flush event: step() swaps
        # the list out of the event without mutating it, so it is safe
        # to hand the same list to each one-shot flush.
        self._flush_callbacks = [self._flush]
        # statistics: integral of served work and of busy time
        self.total_served = 0.0
        self.busy_time = 0.0

    # ------------------------------------------------------------------
    @property
    def n_active(self) -> int:
        return len(self._jobs)

    def submit(self, demand: float, cap: Optional[float] = None) -> Event:
        """Enter a job with ``demand`` work units; returns its done-event.

        ``cap`` limits this job's service rate (defaults to the server's
        ``per_customer_cap``).
        """
        if demand < 0:
            raise ValueError("demand must be >= 0")
        if cap is not None and cap <= 0:
            raise ValueError("cap must be positive")
        done = Event(self.sim)
        if demand == 0:
            done.succeed(None)
            return done
        tr = self.sim.trace
        if tr is not None:
            ap = self.sim._active_process
            tr.serve(ap.tid if ap is not None else -1, self.sim.now,
                     self.name, demand)
        if self.sim.now != self._last_update:
            self._advance()
        if cap is not None:
            ecap = cap
        elif self.per_customer_cap is not None:
            ecap = self.per_customer_cap
        else:
            ecap = _INF
        self._jobs.append(_Job(float(demand), done, self.sim.now, cap,
                               ecap))
        self._request_reschedule()
        return done

    def serve_batch(self, demands: list[float],
                    cap: Optional[float] = None) -> list[Event]:
        """Enter many jobs at the current instant; returns their events.

        Semantically identical to ``[self.submit(d, cap) for d in
        demands]`` -- same job order, same single deferred reallocation
        flush -- but does the bookkeeping in one pass: one time
        advance, one cap resolution, one reschedule request for the
        whole batch.  This is the arrival-side primitive of the cohort
        fast path (a homogeneous region dumps a whole wavefront of
        per-thread demands on a server at one timestamp).
        """
        if cap is not None and cap <= 0:
            raise ValueError("cap must be positive")
        if cap is not None:
            ecap = cap
        elif self.per_customer_cap is not None:
            ecap = self.per_customer_cap
        else:
            ecap = _INF
        sim = self.sim
        now = sim.now
        jobs = self._jobs
        events = []
        advanced = now == self._last_update
        added = False
        for demand in demands:
            if demand < 0:
                raise ValueError("demand must be >= 0")
            done = Event(sim)
            events.append(done)
            if demand == 0:
                done.succeed(None)
                continue
            if not advanced:
                self._advance()
                advanced = True
            jobs.append(_Job(float(demand), done, now, cap, ecap))
            added = True
        if added:
            self._request_reschedule()
        return events

    def _request_reschedule(self) -> None:
        """Defer (re)allocation to a single flush event at the current
        timestamp, so a burst of arrivals/departures costs one O(n)
        pass instead of one per change."""
        self._wakeup_valid = False  # outstanding wakeup is stale
        if self._flush_pending:
            return
        self._flush_pending = True
        flush = Event.__new__(Event)
        sim = self.sim
        flush.sim = sim
        flush.callbacks = self._flush_callbacks
        flush._value = None  # trigger directly; not via succeed()
        flush._exc = None
        flush._defused = False
        # priority 2: after every same-time completion and submission.
        # sim._enqueue inlined (hot path, zero delay).
        _heappush(sim._heap, (sim.now, 2, sim._seq, flush))
        sim._seq += 1

    def _flush(self, _event: Event) -> None:
        self._flush_pending = False
        if self.sim.now != self._last_update:  # usually dt == 0 here
            self._advance()
        self._reschedule()

    # ------------------------------------------------------------------
    def _allocate(self) -> float:
        """Water-filling rate allocation across the active jobs.

        Jobs are filled in ascending cap order; each takes the smaller
        of its cap and an equal share of what remains, and whatever a
        capped job leaves on the table is redistributed to the rest.

        Returns the delay until the earliest job completion at the new
        rates (``inf`` if no job has a positive rate), computed in the
        same pass: ``min(remaining / rate)`` equals the per-job formula
        exactly because IEEE division by a positive rate is monotone.
        """
        jobs = self._jobs
        if not jobs:
            return _INF

        # Fast path: all jobs share one cap (the overwhelmingly common
        # case -- symmetric thread regions).  Equal caps make
        # water-filling collapse to min(cap, capacity / n).
        first_cap = jobs[0].ecap
        uniform = True
        for job in jobs:
            if job.ecap != first_cap:
                uniform = False
                break
        if uniform:
            share = self.capacity / len(jobs)
            rate = first_cap if first_cap <= share else share
            min_remaining = _INF
            for job in jobs:
                job.rate = rate
                if job.remaining < min_remaining:
                    min_remaining = job.remaining
            return min_remaining / rate if rate > 0 else _INF

        # Group jobs by cap: the fill order of a stable sort on cap is
        # "distinct caps ascending, insertion order within each", and
        # there are typically only a handful of distinct caps, so
        # grouping beats sorting all the jobs.  The per-job arithmetic
        # (share = left / n_left, then the capped min) is kept exactly
        # as in the one-pass formulation so allocations stay
        # bit-identical.
        groups: dict[float, list[_Job]] = {}
        for job in jobs:
            ecap = job.ecap
            grp = groups.get(ecap)
            if grp is None:
                groups[ecap] = [job]
            else:
                grp.append(job)
        left = self.capacity
        n_left = len(jobs)
        delay = _INF
        for ecap in sorted(groups):
            for job in groups[ecap]:
                share = left / n_left
                rate = ecap if ecap <= share else share
                job.rate = rate
                left -= rate
                n_left -= 1
                if rate > 0:
                    d = job.remaining / rate
                    if d < delay:
                        delay = d
        return delay

    def _advance(self) -> None:
        """Credit service performed since the last state change."""
        now = self.sim.now
        if now == self._last_update:  # same-timestamp burst: nothing served
            return
        dt = now - self._last_update
        self._last_update = now
        jobs = self._jobs
        if dt <= 0 or not jobs:
            return
        served_total = 0.0
        for job in jobs:
            served = job.rate * dt
            job.remaining -= served
            served_total += served
        self.total_served += served_total
        self.busy_time += dt

    def _reschedule(self) -> None:
        """Recompute rates and schedule the next job completion."""
        self._wakeup_valid = False  # invalidate any outstanding wakeup
        if not self._jobs:
            return
        delay = self._allocate()
        if delay < 0.0:
            delay = 0.0
        sim = self.sim
        wakeup = _internal_event(sim, self._on_wakeup)
        self._wakeup = wakeup
        self._wakeup_valid = True
        # sim._enqueue inlined (hot path, delay already clamped >= 0)
        _heappush(sim._heap, (sim.now + delay, 1, sim._seq, wakeup))
        sim._seq += 1

    def _on_wakeup(self, event: Event) -> None:
        if event is not self._wakeup or not self._wakeup_valid:
            return  # stale wakeup superseded by a later arrival
        # Inlined _advance() fused with the min-remaining scan: one pass
        # over the jobs instead of two.  The arithmetic and accumulation
        # order match _advance() exactly.
        jobs = self._jobs
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        min_remaining = _INF
        if dt > 0 and jobs:
            served_total = 0.0
            for job in jobs:
                served = job.rate * dt
                remaining = job.remaining - served
                job.remaining = remaining
                served_total += served
                if remaining < min_remaining:
                    min_remaining = remaining
            self.total_served += served_total
            self.busy_time += dt
        else:
            for job in jobs:
                if job.remaining < min_remaining:
                    min_remaining = job.remaining
        # A job is done when its remaining work is zero up to float
        # noise (relative to what has been served so far).
        threshold = min_remaining * (1.0 + _EPS)
        if threshold < _EPS:
            threshold = _EPS
        keep, finished = [], []
        for j in jobs:
            if j.remaining <= threshold:
                finished.append(j)
            else:
                keep.append(j)
        self._jobs = keep
        for job in finished:
            job.remaining = 0.0
            job.done.succeed(None)
        self._request_reschedule()

    def utilization(self, total_time: Optional[float] = None) -> float:
        """Fraction of aggregate capacity actually used so far."""
        t = total_time if total_time is not None else self.sim.now
        if t <= 0:
            return 0.0
        return self.total_served / (self.capacity * t)
