"""Batch execution of homogeneous thread cohorts.

The DES path simulates every thread of a parallel region as its own
generator process; each fair-share reallocation is an O(n) Python scan
and each completion a heap event.  For *cohorts* -- threads whose
programs are structurally identical (same item sequence, no cross-
thread synchronization except the region barrier and per-item critical
sections) -- the same timeline can be replayed with flat per-thread
state and no processes, events, or callbacks at all:

* :class:`ScalarBatchServer` mirrors one
  :class:`~repro.des.resources.FairShareServer` with at most one job
  per thread slot, advancing remaining work lazily (only when the
  server is touched, like the DES server's flush/wakeup chunking) and
  caching its next completion time.  It reproduces the DES allocation
  arithmetic in plain Python, and its completion rule (batch every job
  within ``1e-9`` relative of the minimum remaining work) is the DES
  server's rule.

* :class:`CohortEngine` owns the region's servers, sleep timers and
  locks and drives per-thread *segment lists* -- a precompiled form of
  the thread programs -- through them, mirroring the DES event order:
  at each event time every completion is processed before any lock
  handoff wakes a waiter, and completions are processed in job-arrival
  order, matching the FIFO insertion order of ``FairShareServer._jobs``.

On top of the event-stepped loop sit two *closed-form* layers (both
disabled, with the single-member replay below, by
``REPRO_ENGINE=stepped``):

* **Class compression** -- threads whose compiled programs are
  *exactly* identical (same segments, same home server) stay in
  perfect lockstep under the batch arithmetic, so one weighted entity
  replays all of them.  Server jobs carry the weight: the fair share
  divides by the member count, served work scales by it, and a
  weighted lock acquire enqueues its members with the per-arrival
  depth statistics the DES ``Resource`` would record.

* **Convoy-drain replication** -- when the lock queue repeats a cycle
  of identical members (a run of one class, or one member per class
  of a tie's interleave) and the environment is steady (no other
  completions or timers), one cycle of critical-section passes is
  measured event-stepped and the following cycles are replayed
  arithmetically: grant times advance by the cycle length and every
  server's remaining-work/busy/served state by the measured per-cycle
  delta.  One watch measures a cycle; any event that interleaves
  marks it foreign and the engine falls back to stepping.  Only
  holders whose remaining program is a trailing critical section
  (serve/sleep segments ending in its one ``REL``) are watched.

A one-thread region skips the event loop: every segment is a lone
submission, so :meth:`CohortEngine._run_single_member` replays it with
:func:`replay_alone`, the one lone-thread closed form (the machine
driver runs every serial step through it too).  Every other region, a
one-class region included, event-steps with the two layers above.

Work-queue regions take none of these layers: class compression and
convoy drains are off while a queue is attached, and every worker
event-steps on the shared two-server loop (a one-worker queue is the
closed-form single-member replay).  Every generated queue region takes
locks, and folding its uncontended servers into closed-form spans
shifts completion times by ulps -- enough to flip an exact
release/acquire tie and change the integer lock statistics.

Equivalence with the DES path is *numerical*, not bit-for-bit: the
batch allocation follows the same formulas but groups float
operations differently (e.g. one ``capacity/n`` division instead of a
sequential water-fill chain, or ``k * delta`` instead of ``k`` chained
additions), so event times can differ by a few ulps.  Those
differences are absorbed by the completion-batching tolerance the DES
server itself applies; end-to-end simulated seconds agree to well
within 1e-9 relative (checked for every simulation cell the registry
plans by ``repro bench --verify``).

Lock queue order follows one rule: tied arrivals queue in DES order.
DES hands out job seqs member by member, so the members of classes
advanced in one event hold seqs interleaved in creation order, and
DES queues them at a lock one at a time in that order.  Each entity
carries a seq-group token (every class starts in the bootstrap group;
the members of one group that submit in one event form the next
group), and when entities of one group reach one lock in one event
their members are merged into the queue by creation index.  Entities
of different groups hold disjoint seq ranges and queue as blocks.
The MTA's round-robin pinning makes such ties routine: the
per-processor classes of a sync-variable job reach its lock at the
same instant, and their members alternate in the queue.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Optional, Sequence

import numpy as np

from repro.des.errors import DesError

#: longest cycle of tied members a convoy drain measures
_MAX_CYCLE = 32

#: completion tolerance -- must match ``repro.des.resources._EPS``
_EPS = 1e-9
_INF = float("inf")

# ----------------------------------------------------------------------
# segment opcodes (a compiled thread program is a list of tuples whose
# first element is one of these)
# ----------------------------------------------------------------------
SRV = 0     #: ``(SRV, server_id, demand, cap)`` -- one fair-share job
PAR = 1     #: ``(PAR, ((server_id, demand, cap), ...))`` -- jobs started
#:             together on *distinct* servers, joined like ``AllOf``
SLEEP = 2   #: ``(SLEEP, seconds)`` -- a plain timeout
ACQ = 3     #: ``(ACQ, lock_name)`` -- FIFO lock acquire
REL = 4     #: ``(REL, lock_name)`` -- lock release (hand off to waiter)

#: a segment's ``server_id`` may be None: "this thread's home server"
#: (the MTA pins each thread to one processor's issue server).


def replay_alone(segs, t: float, servers, own: int = 0,
                 locks: Optional[dict] = None) -> float:
    """Closed form of a lone thread running ``segs`` from time ``t``.

    With one thread every server holds at most one job, so each
    submission completes at ``t + demand / min(cap, capacity)`` -- what
    submit/allocate/wakeup compute for ``n_active == 1``, bit for bit
    (``capacity / 1 == capacity``) -- and a ``PAR`` ends at its latest
    part.  Credits the servers' busy-time and served-work statistics
    over ``(t + demand / rate) - t``, the difference of clock readings
    a DES server accumulates, not over ``demand / rate`` (late in a
    run the two differ in the last bits, which are most of a tiny
    utilization), and returns the end time.  ``servers`` are live
    :class:`~repro.des.resources.FairShareServer` objects or their
    :class:`ScalarBatchServer` mirrors; ``own`` resolves home-server
    ids.  A lone thread always finds its locks free: each one it
    passes is registered in ``locks`` (name -> lock state), and
    acquiring one it already holds is the deadlock an event loop would
    starve on.
    """
    for seg in segs:
        op = seg[0]
        # SRV, the conventional serial steps' hot case, is spelled out
        # rather than run as a one-part PAR (that doubles its cost)
        if op == SRV:
            _op, sid, demand, cap = seg
            if demand > 0:
                s = servers[own if sid is None else sid]
                c = s.capacity
                rate = cap if cap is not None and cap <= c else c
                e = t + demand / rate
                dt = e - t
                s.busy_time += dt
                s.total_served += rate * dt
                t = e
        elif op == PAR:
            end = t
            for sid, demand, cap in seg[1]:
                if demand > 0:
                    s = servers[own if sid is None else sid]
                    c = s.capacity
                    rate = cap if cap is not None and cap <= c else c
                    e = t + demand / rate
                    dt = e - t
                    s.busy_time += dt
                    s.total_served += rate * dt
                    if e > end:
                        end = e
            t = end
        elif op == SLEEP:
            if seg[1] > 0:
                t += seg[1]
        elif op == ACQ or op == REL:
            lk = locks.get(seg[1])
            if lk is None:
                lk = locks[seg[1]] = _LockState()
            if op == REL:
                lk.holder = None
            elif lk.holder is not None:
                raise DesError("cohort region deadlocked")
            else:
                lk.holder = 0
        else:  # pragma: no cover - compilers emit known opcodes
            raise DesError(f"unknown cohort segment {seg!r}")
    return t


class ScalarBatchServer:
    """Interpreted mirror of one fair-share server for a cohort.

    Jobs live in a dict keyed by thread slot (insertion-ordered, like
    ``FairShareServer._jobs``); the allocation, advance and completion
    arithmetic is the DES server's, operation for operation.  A job
    may carry a *weight* -- identical lockstep members folded into one
    entry -- which scales the fair-share divisor and the served-work
    accounting but leaves every per-member float identical.

    Two standing optimizations, both exact:

    * a **uniform-cap lane**: while every live cap is identical the
      per-job rate is one shared scalar, the flush is O(1) (plus the
      incremental minimum tracked in ``_m``), and the advance skips
      per-job rate lookups;
    * an **indexed finish-time frontier**: the fused advance scan in
      :meth:`finish` tracks the two smallest remaining works, so when
      only the minimum job completes (the common case) the collection
      pass over all slots is skipped entirely -- bit-identical to the
      full scan, which still runs whenever the batching tolerance
      could group more than one job.
    """

    __slots__ = ("capacity", "n", "due", "busy_time", "total_served",
                 "_jobs", "_last", "_dirty", "_urate", "_cap0",
                 "_capsok", "_m")

    def __init__(self, capacity: float, start: float):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = float(capacity)
        #: slot -> [remaining, ecap, arrival_seq, rate, weight]
        self._jobs: dict[int, list] = {}
        self.n = 0               # live members (sum of weights)
        self.due = _INF          # absolute next-completion time
        self.busy_time = 0.0
        self.total_served = 0.0
        self._last = start
        self._dirty = False
        self._urate = 0.0        # shared rate; 0 = heterogeneous lane
        self._cap0: Optional[float] = None  # first cap since last empty
        self._capsok = True      # every live cap equals _cap0
        self._m: Optional[float] = None  # min remaining at _last

    def add(self, slot: int, demand: float, cap: Optional[float],
            seq: int, now: float, weight: int = 1) -> None:
        if now != self._last:
            self._advance_to(now)
        ecap = cap if cap is not None else _INF
        self._jobs[slot] = [demand, ecap, seq, 0.0, weight]
        self.n += weight
        if self._cap0 is None:
            self._cap0 = ecap
        elif ecap != self._cap0:
            self._capsok = False
        if self._m is not None and demand < self._m:
            self._m = demand
        self._dirty = True

    def sync(self, now: float) -> None:
        """Advance lazily-stored remaining work to ``now``."""
        self._advance_to(now)

    def _advance_to(self, now: float) -> None:
        dt = now - self._last
        self._last = now
        jobs = self._jobs
        if dt <= 0 or not jobs:
            return
        r = self._urate
        if r:
            rdt = r * dt
            for job in jobs.values():
                job[0] -= rdt
            self.total_served += rdt * self.n
            if self._m is not None:
                self._m -= rdt
        else:
            served_total = 0.0
            for job in jobs.values():
                served = job[3] * dt
                job[0] -= served
                served_total += served * job[4]
            self.total_served += served_total
            self._m = None
        self.busy_time += dt

    def finish(self, now: float) -> list[tuple[int, int]]:
        """Completed ``(arrival_seq, slot)`` pairs at time ``now``."""
        jobs = self._jobs
        # advance inlined: finish runs once per completion event; the
        # same fused scan tracks the two smallest remaining works (the
        # finish-time frontier) so the common single-completion case
        # never rescans the slots
        dt = now - self._last
        self._last = now
        m = _INF
        m2 = _INF
        slot_m = -1
        seq_m = -1
        if dt > 0:
            r = self._urate
            if r:
                rdt = r * dt
                self.total_served += rdt * self.n
                for slot, job in jobs.items():
                    v = job[0] - rdt
                    job[0] = v
                    if v < m:
                        m2 = m
                        m = v
                        slot_m = slot
                        seq_m = job[2]
                    elif v < m2:
                        m2 = v
            else:
                served_total = 0.0
                for slot, job in jobs.items():
                    served = job[3] * dt
                    v = job[0] - served
                    job[0] = v
                    served_total += served * job[4]
                    if v < m:
                        m2 = m
                        m = v
                        slot_m = slot
                        seq_m = job[2]
                    elif v < m2:
                        m2 = v
                self.total_served += served_total
            self.busy_time += dt
        else:
            for slot, job in jobs.items():
                v = job[0]
                if v < m:
                    m2 = m
                    m = v
                    slot_m = slot
                    seq_m = job[2]
                elif v < m2:
                    m2 = v
        threshold = m * (1.0 + _EPS)
        if threshold < _EPS:
            threshold = _EPS
        self._dirty = True
        if m2 > threshold:
            # frontier fast path: only the minimum job is inside the
            # batching tolerance
            job = jobs.pop(slot_m)
            self.n -= job[4]
            if not jobs:
                self._cap0 = None
                self._capsok = True
                self._m = None
            else:
                self._m = m2
            return [(seq_m, slot_m)]
        out = []
        mk = _INF
        for slot, job in jobs.items():
            if job[0] <= threshold:
                out.append((job[2], slot))
            elif job[0] < mk:
                mk = job[0]
        for _sq, slot in out:
            self.n -= jobs.pop(slot)[4]
        if not jobs:
            self._cap0 = None
            self._capsok = True
            self._m = None
        else:
            self._m = mk
        return out

    def flush(self, now: float) -> None:
        """Recompute rates and the next completion time if stale."""
        if not self._dirty:
            return
        self._dirty = False
        jobs = self._jobs
        if not jobs:
            self.due = _INF
            self._cap0 = None
            self._capsok = True
            self._urate = 0.0
            self._m = None
            return
        capacity = self.capacity
        if not self._capsok:
            groups: dict[float, list] = {}
            for job in jobs.values():
                grp = groups.get(job[1])
                if grp is None:
                    groups[job[1]] = [job]
                else:
                    grp.append(job)
            if len(groups) == 1:
                # the last differing cap has left: rejoin the uniform
                # lane, as FairShareServer._allocate re-checks
                # uniformity on every pass
                (self._cap0,) = groups
                self._capsok = True
                self._m = None
        if self._capsok:
            # uniform-cap lane: one shared rate, O(1) given the
            # incrementally-maintained minimum
            cap0 = self._cap0
            share = capacity / self.n
            rate = cap0 if cap0 <= share else share
            self._urate = rate
            m = self._m
            if m is None:
                m = _INF
                for job in jobs.values():
                    if job[0] < m:
                        m = job[0]
                self._m = m
            delay = m / rate if rate > 0 else _INF
            if delay < 0.0:
                delay = 0.0
            self.due = self._last + delay
            return
        self._urate = 0.0
        self._m = None
        left = capacity
        n_left = self.n
        delay = _INF
        for ecap in sorted(groups):
            for job in groups[ecap]:
                share = left / n_left
                rate = ecap if ecap <= share else share
                job[3] = rate
                w = job[4]
                left -= rate * w
                n_left -= w
                if rate > 0:
                    d = job[0] / rate
                    if d < delay:
                        delay = d
        if delay < 0.0:
            delay = 0.0
        self.due = self._last + delay

    # -- convoy-drain replication hooks --------------------------------
    def drain_state(self) -> tuple[dict[int, float], float, float]:
        """Per-slot remaining work plus accumulators, at ``_last``."""
        return ({slot: job[0] for slot, job in self._jobs.items()},
                self.busy_time, self.total_served)

    def drain_apply(self, k: int, decs: dict[int, float],
                    busy_dec: float, served_dec: float,
                    t_end: float) -> None:
        """Replay ``k`` measured critical-section passes arithmetically."""
        jobs = self._jobs
        for slot, dec in decs.items():
            jobs[slot][0] -= k * dec
        self.busy_time += k * busy_dec
        self.total_served += k * served_dec
        self._last = t_end
        self._m = None
        self._dirty = True


class _Thread:
    __slots__ = ("segs", "idx", "own", "outstanding", "weight",
                 "armed_lock", "armed_idx", "members", "tok")

    def __init__(self, segs: list, own: int, weight: int = 1):
        self.segs = segs
        self.idx = 0
        self.own = own          # home server id (None segments resolve here)
        self.outstanding = 0    # unfinished parts of the current segment
        self.weight = weight    # lockstep members this entity represents
        self.armed_lock = None  # lock held but not yet contended-split
        self.armed_idx = 0
        #: creation indices of the members, ascending (class entities)
        self.members: list[int] = []
        #: seq group: the members of entities sharing a token hold
        #: seqs interleaved in creation order; None = a group of one
        self.tok: Optional[int] = None


class _LockState:
    __slots__ = ("holder", "queue", "qlen", "waits", "wait_time",
                 "max_depth", "hist", "tie_key", "tie", "tie_n",
                 "cyclic")

    def __init__(self) -> None:
        self.holder: Optional[int] = None
        #: entries [cid, resume_idx, count, t_enqueue, parked]; one
        #: entry covers `count` identical members queued back to back
        self.queue: deque[list] = deque()
        self.qlen = 0           # waiting members across all entries
        self.waits = 0
        self.wait_time = 0.0
        # convoy statistics -- the same formula Resource applies: depth
        # seen by each contended acquire, max + power-of-two histogram
        self.max_depth = 0
        self.hist: dict[int, int] = {}
        #: (event, token) of the arrivals at the queue's tail, their
        #: members as (creation index, cid, resume_idx, parked) and
        #: the number of tail entries they fill
        self.tie_key: Optional[tuple[int, int]] = None
        self.tie: list[tuple[int, int, int, bool]] = []
        self.tie_n = 0
        self.cyclic = False     # a tie interleaved classes in the queue


class _DrainWatch:
    """One cycle of critical-section passes being measured for
    replication: one pass for a run of one class, one pass per class
    for classes interleaved by a tie."""

    __slots__ = ("lock_name", "tid", "t_grant", "snaps", "foreign",
                 "cycle", "rels")

    def __init__(self, lock_name, tid, t_grant, snaps, cycle):
        self.lock_name = lock_name
        self.tid = tid          # the measured holder
        self.t_grant = t_grant
        self.snaps = snaps      # per-server drain_state() at grant
        self.foreign = False    # an unrelated event interleaved
        #: (class program, resume index) of each pass, in grant order
        self.cycle = cycle
        #: release times of the passes done so far, from t_grant
        self.rels: list[float] = []


class CohortEngine:
    """Replays one homogeneous parallel region without DES processes.

    Parameters
    ----------
    start_time:
        Absolute simulation time at which the region's threads start
        (after the parent has paid thread-creation costs).
    capacities:
        Aggregate capacity of each server, indexed by the ``server_id``
        the segments use.
    programs:
        One compiled segment list per thread (empty for work-queue
        workers, which pull everything from ``queue``).
    own_sids:
        Per-thread home server id (defaults to 0) resolving segments
        whose ``server_id`` is None.
    queue:
        Optional FIFO of compiled work items; a thread that exhausts
        its segments pops the next item, exactly like the DES worker
        loop over ``Store.try_get``.
    closed_form:
        Enable the closed-form layers (class compression and
        convoy-drain replication) and the single-member replay.  The
        machine driver passes ``False`` under ``REPRO_ENGINE=stepped``.
    """

    def __init__(self, start_time: float, capacities: Sequence[float],
                 programs: Sequence[list],
                 own_sids: Optional[Sequence[int]] = None,
                 queue: Optional[deque] = None,
                 closed_form: bool = True):
        self.closed_form = closed_form
        n = len(programs)
        self.n_members = n
        self.now = float(start_time)
        self.queue = queue
        threads: list[_Thread] = []
        if closed_form and queue is None and n > 1:
            # class compression: identical (program, home-server)
            # threads stay in perfect lockstep under the batch
            # arithmetic, so one weighted entity replays all of them
            groups: dict = {}
            for i, segs in enumerate(programs):
                own = own_sids[i] if own_sids is not None else 0
                key = (own, tuple(segs))
                th = groups.get(key)
                if th is None:
                    th = _Thread(list(segs), own)
                    groups[key] = th
                    threads.append(th)
                else:
                    th.weight += 1
                th.members.append(i)
        else:
            threads = [
                _Thread(list(segs),
                        own_sids[i] if own_sids is not None else 0)
                for i, segs in enumerate(programs)
            ]
        self.threads = threads
        #: tie tracking: only several classes, one of them weighted,
        #: can tie at a lock in an order compression would lose
        self._ties = 1 < len(threads) < n
        if self._ties:
            for th in threads:
                th.tok = 0      # bootstrap: one group, creation order
        self._event = 0         # loop iteration (0 = bootstrap)
        self._rt = (-1, -1, 0)  # last (event, old token, new token)
        self._rt_next = 1
        self.servers = [ScalarBatchServer(c, self.now) for c in capacities]
        self.timers: list[tuple[float, int, int]] = []
        self.locks: dict[str, _LockState] = {}
        self.n_done = 0
        self._seq = 0
        self._grants: deque[int] = deque()
        #: server ids receiving submissions since the last flush point;
        #: lets the many-server event loop flush only what changed
        self._touched: list[int] = []
        self._watch: Optional[_DrainWatch] = None
        self._drain: Optional[tuple] = None
        self._tail_ok: dict[tuple[int, int], bool] = {}
        #: per-member completion times, in completion order
        self.done_times: list[float] = []
        #: engine-choice accounting threaded into ``RunResult.stats``
        self.stats = {"members": n, "classes": len(threads),
                      "closed_form": 0, "drained_grants": 0,
                      "stepped_grants": 0, "events": 0}

    # ------------------------------------------------------------------
    def run(self) -> float:
        """Drive the region to completion; returns its absolute end time."""
        if self.closed_form and self.n_members == 1:
            # a lone thread (e.g. a one-worker work queue) is entirely
            # serial: every segment runs alone, closed form
            self.stats["closed_form"] = 1
            return self._run_single_member()
        # threads start in creation order (DES bootstrap order)
        for tid in range(len(self.threads)):
            self._advance_thread(tid)
        self._drain_grants()
        servers = self.servers
        for s in servers:
            if s._dirty:
                s.flush(self.now)
        # a flushed server's `due` is authoritative (inf when idle), so
        # the event loops below never need to consult `n`
        if len(servers) == 2:
            return self._run_two(self.n_members)
        return self._run_many(self.n_members)

    # ------------------------------------------------------------------
    def _run_single_member(self) -> float:
        """Closed-form replay of a one-thread region: its program, then
        the work queue item by item, each a :func:`replay_alone`."""
        th = self.threads[0]
        t = replay_alone(th.segs, self.now, self.servers, th.own,
                         self.locks)
        q = self.queue
        while q:
            t = replay_alone(q.popleft(), t, self.servers, th.own,
                             self.locks)
        self.now = t
        self.n_done = 1
        self.done_times = [t]
        return t

    # ------------------------------------------------------------------
    def _run_two(self, n: int) -> float:
        """Event loop specialized for two servers (every conventional
        region -- cpu + bus -- and the single-processor MTA)."""
        s0, s1 = self.servers
        timers = self.timers
        threads = self.threads
        advance = self._advance_thread
        grants = self._grants
        touched = self._touched
        events = 0
        while self.n_done < n:
            del touched[:]  # two servers: the dirty flags suffice
            d0 = s0.due
            d1 = s1.due
            t = d0 if d0 < d1 else d1
            if timers and timers[0][0] < t:
                t = timers[0][0]
            if t == _INF:  # pragma: no cover - defensive
                raise DesError("cohort region deadlocked")
            events += 1
            self._event = events
            self.now = t
            batch = s0.finish(t) if d0 <= t else []
            if d1 <= t:
                b1 = s1.finish(t)
                batch = batch + b1 if batch else b1
            while timers and timers[0][0] <= t:
                _t, sq, tid = heappop(timers)
                batch.append((sq, tid))
            if len(batch) > 1:
                # job-arrival order: the FIFO insertion order the DES
                # server iterates when succeeding a completion batch
                batch.sort()
            w_ = self._watch
            if w_ is not None:
                wtid = w_.tid
                for _sq, tid in batch:
                    if tid != wtid:
                        w_.foreign = True
                        break
            for _sq, tid in batch:
                th = threads[tid]
                o = th.outstanding - 1
                th.outstanding = o
                if o == 0:
                    advance(tid)
            if grants:
                self._drain_grants()
            if s0._dirty:
                s0.flush(t)
            if s1._dirty:
                s1.flush(t)
            if self._drain is not None:
                self._apply_drain()
        self.stats["events"] += events
        return self.now

    def _run_many(self, n: int) -> float:
        """Event loop for three or more servers.

        A lazy due-heap replaces the per-event scans over every
        server: flushing a server pushes ``(due, sid)``, entries whose
        due no longer matches the server are discarded on pop, and the
        ``_touched`` list names the only servers whose rates an event
        can have changed.  Pure control flow -- every float the
        servers compute is untouched, so the timeline is bit-identical
        to the scanning loop.
        """
        servers = self.servers
        timers = self.timers
        threads = self.threads
        advance = self._advance_thread
        grants = self._grants
        touched = self._touched
        del touched[:]  # bootstrap submissions are already flushed
        heap: list[tuple[float, int]] = [
            (s.due, i) for i, s in enumerate(servers) if s.due < _INF]
        heapify(heap)
        events = 0
        while self.n_done < n:
            while heap:
                d, i = heap[0]
                if servers[i].due == d:
                    break
                heappop(heap)
            t = heap[0][0] if heap else _INF
            if timers and timers[0][0] < t:
                t = timers[0][0]
            if t == _INF:  # pragma: no cover - defensive
                raise DesError("cohort region deadlocked")
            events += 1
            self._event = events
            self.now = t
            due_ids: list[int] = []
            while heap and heap[0][0] <= t:
                d, i = heappop(heap)
                if servers[i].due == d and i not in due_ids:
                    due_ids.append(i)
            batch: list[tuple[int, int]] = []
            for i in due_ids:
                batch.extend(servers[i].finish(t))
            while timers and timers[0][0] <= t:
                _t, sq, tid = heappop(timers)
                batch.append((sq, tid))
            if len(batch) > 1:
                # job-arrival order: the FIFO insertion order the DES
                # server iterates when succeeding a completion batch
                batch.sort()
            w_ = self._watch
            if w_ is not None:
                wtid = w_.tid
                for _sq, tid in batch:
                    if tid != wtid:
                        w_.foreign = True
                        break
            for _sq, tid in batch:
                th = threads[tid]
                o = th.outstanding - 1
                th.outstanding = o
                if o == 0:
                    advance(tid)
            if grants:
                self._drain_grants()
            if touched:
                for i in touched:
                    s = servers[i]
                    if s._dirty:
                        s.flush(t)
                        if s.due < _INF:
                            heappush(heap, (s.due, i))
                del touched[:]
            for i in due_ids:
                s = servers[i]
                if s._dirty:
                    s.flush(t)
                    if s.due < _INF:
                        heappush(heap, (s.due, i))
            if self._drain is not None:
                self._apply_drain()
                # the drain flushed whatever it changed; reseed
                heap = [(s.due, i) for i, s in enumerate(servers)
                        if s.due < _INF]
                heapify(heap)
                del touched[:]
        self.stats["events"] += events
        return self.now

    # ------------------------------------------------------------------
    def total_lock_waits(self) -> int:
        return sum(lk.waits for lk in self.locks.values())

    def total_lock_wait_time(self) -> float:
        return sum(lk.wait_time for lk in self.locks.values())

    # ------------------------------------------------------------------
    def _advance_thread(self, tid: int) -> None:
        """Run a thread forward until it blocks or finishes.

        Zero-demand submissions, free lock acquires and releases are
        processed synchronously -- they advance no simulated time and
        the threads of a cohort are interchangeable, so the DES
        event-queue interleaving they would get cannot change the
        region timeline.
        """
        th = self.threads[tid]
        segs = th.segs
        i = th.idx
        servers = self.servers
        now = self.now
        seq = self._seq
        ties = self._ties
        while True:
            if i >= len(segs):
                q = self.queue
                if q:
                    segs = th.segs = q.popleft()
                    i = 0
                    continue
                th.idx = i
                self._seq = seq
                self.n_done += th.weight
                dts = self.done_times
                for _ in range(th.weight):
                    dts.append(now)
                return
            seg = segs[i]
            i += 1
            op = seg[0]
            if op == SRV:
                _op, sid, demand, cap = seg
                if demand > 0:
                    if sid is None:
                        sid = th.own
                    if th.armed_lock is not None and th.weight > 1:
                        self._split_armed(th, tid, now)
                    if ties:
                        self._retoken(th)
                    servers[sid].add(tid, demand, cap, seq, now, th.weight)
                    self._touched.append(sid)
                    seq += 1
                    th.outstanding = 1
                    th.idx = i
                    self._seq = seq
                    return
            elif op == PAR:
                k = 0
                for sid, demand, cap in seg[1]:
                    if demand > 0:
                        if sid is None:
                            sid = th.own
                        if k == 0:
                            if th.armed_lock is not None \
                                    and th.weight > 1:
                                self._split_armed(th, tid, now)
                            if ties:
                                self._retoken(th)
                        servers[sid].add(tid, demand, cap, seq, now,
                                         th.weight)
                        self._touched.append(sid)
                        seq += 1
                        k += 1
                if k:
                    th.outstanding = k
                    th.idx = i
                    self._seq = seq
                    return
            elif op == SLEEP:
                d = seg[1]
                if d > 0:
                    if th.armed_lock is not None and th.weight > 1:
                        self._split_armed(th, tid, now)
                    if ties:
                        self._retoken(th)
                    heappush(self.timers, (now + d, seq, tid))
                    self._seq = seq + 1
                    th.outstanding = 1
                    th.idx = i
                    return
            elif op == ACQ:
                lk = self._lock(seg[1])
                if lk.holder is None:
                    lk.holder = tid
                    if th.weight > 1 and th.armed_lock is None:
                        # run the whole class through optimistically;
                        # the trailing members split into the queue
                        # only if the critical section actually blocks
                        th.armed_lock = seg[1]
                        th.armed_idx = i
                else:
                    # contended: counted at request time, like Resource
                    self._enqueue(lk, tid, i, th.weight, now,
                                  parked=True, members=th.members)
                    th.idx = i
                    self._seq = seq
                    return
            elif op == REL:
                name = seg[1]
                lk = self._lock(name)
                if th.armed_lock == name:
                    # the whole class passed through synchronously:
                    # zero simulated time, no contention
                    th.armed_lock = None
                    lk.holder = None
                else:
                    lk.holder = None
                    if lk.queue:
                        self._seq = seq
                        self._hand_off(lk, name, tid, now)
                        seq = self._seq
                    elif self._watch is not None \
                            and self._watch.tid == tid:
                        self._watch = None
            else:  # pragma: no cover - compilers emit known opcodes
                raise DesError(f"unknown cohort segment {seg!r}")

    def _hand_off(self, lk: _LockState, name: str, tid: int,
                  now: float) -> None:
        """Release by ``tid`` onto a non-empty queue: grant the next
        member, or, when ``tid`` ends a measured cycle whose pattern
        the queue repeats, defer the hand-off to the drain."""
        w_ = self._watch
        if w_ is None or w_.tid != tid:
            self._grant_next(lk, now)
            return
        self._watch = None
        if w_.foreign or w_.lock_name != name or now <= w_.t_grant:
            self._grant_next(lk, now)
            return
        head = lk.queue[0]
        n_pass = len(w_.rels) + 1
        segs, idx = w_.cycle[n_pass % len(w_.cycle)]
        if head[1] != idx or self.threads[head[0]].segs is not segs:
            self._grant_next(lk, now)
        elif n_pass < len(w_.cycle):
            # a pass inside the cycle: hand off and keep measuring
            w_.rels.append(now - w_.t_grant)
            self._watch = w_
            w_.tid = self._grant_next(lk, now)
        else:
            # measured cycle matches the queued members: defer the
            # hand-off and replicate once this event's server state
            # settles
            self._drain = (lk, now - w_.t_grant, w_)

    def _retoken(self, th: _Thread) -> None:
        """Move a submitting entity to its seq group for this event.

        DES hands out seqs member by member in processing order, so
        the members of one group advanced in one event take
        interleaved new seqs (creation order) and form the next
        group.  Groups are contiguous in processing order, so the
        last mapping is the only one to remember.
        """
        tok = th.tok
        if tok is None:
            return
        ev, old, new = self._rt
        if ev != self._event or old != tok:
            new = self._rt_next
            self._rt_next = new + 1
            self._rt = (self._event, tok, new)
        th.tok = new

    # ------------------------------------------------------------------
    def _enqueue(self, lk: _LockState, cid: int, idx: int, w: int,
                 now: float, parked: bool, members: list[int]) -> None:
        # the members arrive back to back, each seeing a queue one
        # deeper than the previous
        q0 = lk.qlen
        lk.waits += w
        depth = q0 + w
        if depth > lk.max_depth:
            lk.max_depth = depth
        hist = lk.hist
        for d in range(q0 + 1, depth + 1):
            bucket = 1 << (d.bit_length() - 1)
            hist[bucket] = hist.get(bucket, 0) + 1
        lk.qlen += w
        tok = self.threads[cid].tok
        if tok is None:
            lk.tie_key = None
            lk.queue.append([cid, idx, w, now, parked])
            return
        key = (self._event, tok)
        arrivals = [(m, cid, idx, parked) for m in members]
        if lk.tie_key != key:
            lk.tie_key = key
            lk.tie = arrivals
            lk.tie_n = 1
            lk.queue.append([cid, idx, w, now, parked])
            return
        # a tie: the members of one seq group reach the lock in one
        # event, and DES queues them one at a time in creation order
        q = lk.queue
        for _ in range(lk.tie_n):
            q.pop()
        tie = lk.tie
        tie.extend(arrivals)
        tie.sort()
        runs: list[list] = []
        is_parked: dict[int, bool] = {}
        for _m, c, i, p in tie:
            is_parked[c] = p
            if runs and runs[-1][0] == c:
                runs[-1][2] += 1
            else:
                runs.append([c, i, 1, now, False])
        # only a parked entity's last run resumes the entity itself
        for run in reversed(runs):
            if is_parked.pop(run[0], False):
                run[4] = True
        q.extend(runs)
        lk.tie_n = len(runs)
        lk.cyclic = True

    def _split_armed(self, th: _Thread, tid: int, now: float) -> None:
        # the class entered its critical section optimistically as one
        # unit; the section blocks, so the trailing members queue
        # behind the leader exactly as individual threads would have
        lk = self.locks[th.armed_lock]
        trailing = th.members[1:]
        del th.members[1:]
        self._enqueue(lk, tid, th.armed_idx, th.weight - 1, now,
                      parked=False, members=trailing)
        th.weight = 1
        th.armed_lock = None

    def _grant_next(self, lk: _LockState, now: float) -> int:
        """Hand the lock to the next queued member (FIFO)."""
        head = lk.queue[0]
        cid, idx, cnt, t0, parked = head
        lk.wait_time += now - t0
        lk.qlen -= 1
        if len(lk.queue) <= lk.tie_n:
            # the grant takes a member of the tie at the tail; a grant
            # ahead of it leaves its order to later tied arrivals
            lk.tie_key = None
        if cnt == 1:
            lk.queue.popleft()
        else:
            head[2] = cnt - 1
        src = self.threads[cid]
        if parked and cnt == 1:
            # the last parked member is the waiting entity itself
            src.weight = 1
            src.tok = None
            granted = cid
        else:
            runner = _Thread(src.segs, src.own)
            runner.idx = idx
            granted = len(self.threads)
            self.threads.append(runner)
        lk.holder = granted
        self._grants.append(granted)
        self.stats["stepped_grants"] += 1
        if (self.closed_form and self.queue is None
                and self._watch is None and lk.queue):
            h = lk.queue[0]
            if h[0] == cid and h[1] == idx:
                self._arm_watch(lk, granted, now, ((src.segs, idx),))
            elif lk.cyclic:
                cycle = self._cycle_at(lk.queue, src.segs, idx)
                if cycle is not None:
                    self._arm_watch(lk, granted, now, cycle)
        return granted

    def _cycle_at(self, q: deque, segs: list, idx: int
                  ) -> Optional[tuple]:
        """The cycle of queued members that starts with the member just
        granted (program ``segs`` resuming at ``idx``), if the queue
        repeats it at least once; else None.

        The cycle runs up to the next member of the granted class; a
        tie's interleave repeats it.  Every pass must be a convoy tail.
        """
        threads = self.threads
        ids = [(id(segs), idx)]
        cycle = [(segs, idx)]
        for e in q:
            s_ = threads[e[0]].segs
            key = (id(s_), e[1])
            for _ in range(e[2]):
                ids.append(key)
                cycle.append((s_, e[1]))
                if len(ids) == 2 * _MAX_CYCLE:
                    break
            if len(ids) == 2 * _MAX_CYCLE:
                break
        try:
            c = ids.index(ids[0], 1)
        except ValueError:
            return None
        if len(ids) < 2 * c or ids[c:2 * c] != ids[:c]:
            return None
        for s_, i_ in cycle[:c]:
            if not self._convoy_tail_ok(s_, i_):
                return None
        return tuple(cycle[:c])

    def _full_cycles(self, q: deque, cycle: tuple) -> int:
        """How many whole repeats of ``cycle`` lead the queue."""
        threads = self.threads
        c = len(cycle)
        n = j = 0
        for e in q:
            s_ = threads[e[0]].segs
            for _ in range(e[2]):
                cs, ci = cycle[j]
                if s_ is not cs or e[1] != ci:
                    return n
                j += 1
                if j == c:
                    n += 1
                    j = 0
        return n

    def _arm_watch(self, lk: _LockState, holder_tid: int, now: float,
                   cycle: tuple) -> None:
        """Start measuring the cycle the new holder begins."""
        if not self._convoy_tail_ok(*cycle[0]):
            return
        snaps = []
        for s in self.servers:
            s.sync(now)
            snaps.append(s.drain_state())
        name = next(k for k, v in self.locks.items() if v is lk)
        self._watch = _DrainWatch(name, holder_tid, now, snaps, cycle)

    def _convoy_tail_ok(self, segs: list, idx: int) -> bool:
        """Whether ``segs[idx:]`` is a pure critical-section tail:
        serve/sleep segments ending the program with a single REL."""
        key = (id(segs), idx)
        ok = self._tail_ok.get(key)
        if ok is None:
            ok = len(segs) > idx and segs[-1][0] == REL
            if ok:
                for seg in segs[idx:-1]:
                    if seg[0] == ACQ or seg[0] == REL:
                        ok = False
                        break
            self._tail_ok[key] = ok
        return ok

    def _apply_drain(self) -> None:
        """Replicate the measured cycle over the queued members that
        repeat it, bounded by the event horizon.

        Runs after the current event's flushes: every server's state
        is settled at ``self.now``.  A cycle -- one pass, or one pass
        per class of a tie's interleave -- takes ``delta`` seconds and
        decrements each live job's remaining work by the measured
        per-cycle amount, so ``k`` cycles replay as one
        multiply-accumulate provided no job completes and no timer
        fires before ``now + k * delta``.
        """
        lk, delta, w_ = self._drain
        self._drain = None
        now = self.now
        q = lk.queue
        head = q[0]
        cnt = head[2]
        c = len(w_.cycle)
        k = cnt if c == 1 else self._full_cycles(q, w_.cycle)
        states = []
        for s, snap in zip(self.servers, w_.snaps):
            s.sync(now)
            cur_map, busy1, served1 = s.drain_state()
            snap_map, busy0, served0 = snap
            if len(cur_map) != len(snap_map):
                k = 0
                break
            dec_map = {}
            bad = False
            for slot, r0 in snap_map.items():
                r1 = cur_map.get(slot)
                if r1 is None:
                    bad = True
                    break
                dec = r0 - r1
                if dec > 0.0:
                    # stay two full cycles clear of this job's
                    # completion so the batching tolerance can never
                    # group it differently than stepping would
                    kj = int(r1 / dec) - 2
                    if kj < k:
                        k = kj
                    dec_map[slot] = dec
                elif dec < 0.0:
                    bad = True
                    break
            if bad:
                k = 0
                break
            states.append((s, dec_map, busy1 - busy0, served1 - served0))
        timers = self.timers
        if k > 0 and timers:
            kt = int((timers[0][0] - now) / delta) - 1
            if kt < k:
                k = kt
        if k > 0:
            t_end = now + k * delta
            for s, dec_map, busy_d, served_d in states:
                s.drain_apply(k, dec_map, busy_d, served_d, t_end)
            if c == 1:
                head[2] = cnt - k
                lk.qlen -= k
                t0 = head[3]
                lk.wait_time += k * (now - t0) \
                    + delta * (k * (k - 1) / 2.0)
                self.done_times.extend(
                    (now + delta * np.arange(1, k + 1)).tolist())
                if head[2] == 0:
                    q.popleft()
            else:
                # pass j of cycle m is granted at the release of pass
                # j - 1 and ends at its own release
                offs = [0.0] + w_.rels
                dts = self.done_times
                wait = lk.wait_time
                for m in range(k):
                    base = now + m * delta
                    for j in range(c):
                        e = q[0]
                        wait += base + offs[j] - e[3]
                        e[2] -= 1
                        if e[2] == 0:
                            q.popleft()
                        dts.append(base + offs[j + 1] if j + 1 < c
                                   else now + (m + 1) * delta)
                lk.wait_time = wait
                lk.qlen -= k * c
            self.n_done += k * c
            self.stats["drained_grants"] += k * c
            self.now = now = t_end
        if q:
            self._grant_next(lk, now)
            self._drain_grants()
        for s in self.servers:
            if s._dirty:
                s.flush(now)

    def _drain_grants(self) -> None:
        g = self._grants
        while g:
            self._advance_thread(g.popleft())

    def _lock(self, name: str) -> _LockState:
        lk = self.locks.get(name)
        if lk is None:
            lk = self.locks[name] = _LockState()
        return lk
