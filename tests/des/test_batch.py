"""Unit and property tests for the cohort batch engine.

The contract under test: the batch server and :class:`CohortEngine`
reproduce, job for job, the timeline the slice-interleaved DES path
computes with one generator process per thread.  The batch server must
agree with a live ``FairShareServer`` to within the DES completion
tolerance.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.des import DesError, FairShareServer, Simulator
from repro.des.batch import (
    ACQ,
    PAR,
    REL,
    SLEEP,
    SRV,
    CohortEngine,
    ScalarBatchServer,
    replay_alone,
)

from tests.parity import REL_TOL, rel_err  # noqa: E402


# ----------------------------------------------------------------------
# replay_alone / serve_batch against the live DES server
# ----------------------------------------------------------------------

def test_replay_alone_matches_lone_des_submission():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=100.0)
    done = {}

    def body(sim):
        ev = srv.submit(730.0, cap=40.0)
        yield ev
        done["t"] = sim.now

    sim.process(body(sim))
    sim.run()

    mirror = FairShareServer(Simulator(), capacity=100.0)
    end = replay_alone([(SRV, 0, 730.0, 40.0)], 0.0, [mirror])
    assert end == done["t"]
    assert mirror.busy_time == srv.busy_time
    assert mirror.total_served == srv.total_served


def test_serve_batch_equals_individual_submits():
    demands = [100.0, 250.0, 60.0, 100.0]

    def run(batched: bool):
        sim = Simulator()
        srv = FairShareServer(sim, capacity=50.0)
        ends = {}

        def waiter(sim, i, ev):
            yield ev
            ends[i] = sim.now

        def submitter(sim):
            if batched:
                events = srv.serve_batch(demands, cap=30.0)
            else:
                events = [srv.submit(d, cap=30.0) for d in demands]
            for i, ev in enumerate(events):
                sim.process(waiter(sim, i, ev))
            return
            yield  # pragma: no cover - generator marker

        sim.process(submitter(sim))
        sim.run()
        return ends, srv.busy_time, srv.total_served

    ends_a, busy_a, served_a = run(batched=False)
    ends_b, busy_b, served_b = run(batched=True)
    assert ends_a == ends_b
    assert busy_a == busy_b
    assert served_a == served_b


def test_serve_batch_zero_demand_completes_immediately():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=10.0)
    events = srv.serve_batch([0.0, 5.0])
    assert events[0].triggered
    assert not events[1].triggered


def test_serve_batch_rejects_bad_input():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=10.0)
    with pytest.raises(ValueError):
        srv.serve_batch([1.0], cap=0.0)
    with pytest.raises(ValueError):
        srv.serve_batch([-1.0])


# ----------------------------------------------------------------------
# batch server against the live DES server
# ----------------------------------------------------------------------

def drain(server, jobs, start=0.0):
    """Push ``jobs = [(demand, cap), ...]`` at ``start`` and drain.

    Returns the ordered completion events as ``(time, sorted slots)``.
    """
    for slot, (demand, cap) in enumerate(jobs):
        server.add(slot, demand, cap, slot, start)
    server.flush(start)
    out = []
    while server.n:
        t = server.due
        assert t < math.inf
        done = server.finish(t)
        server.flush(t)
        out.append((t, sorted(s for _q, s in done)))
    return out


def drain_des(capacity, jobs):
    """Submit ``jobs`` together to a live :class:`FairShareServer` at
    t=0 and run to completion; returns ``(completions, server)`` with
    ``completions`` the ``(time, slot)`` pairs in completion order."""
    sim = Simulator()
    srv = FairShareServer(sim, capacity=capacity)
    done = []

    def waiter(sim, slot, ev):
        yield ev
        done.append((sim.now, slot))

    def submitter(sim):
        for slot, (demand, cap) in enumerate(jobs):
            sim.process(waiter(sim, slot, srv.submit(demand, cap=cap)))
        return
        yield  # pragma: no cover - generator marker

    sim.process(submitter(sim))
    sim.run()
    return done, srv


@st.composite
def server_jobs(draw):
    """``(demand, cap)`` jobs, up to 160 of them: the width is drawn
    first so regions wider than 96 slots are routinely covered."""
    n = draw(st.integers(min_value=1, max_value=160))
    return draw(st.lists(
        st.tuples(
            st.floats(min_value=1e-3, max_value=1e6),
            st.one_of(st.none(),
                      st.floats(min_value=1e-2, max_value=1e4)),
        ),
        min_size=n, max_size=n))


@settings(max_examples=120, deadline=None)
@given(server_jobs(), st.floats(min_value=1e-1, max_value=1e3))
def test_scalar_server_matches_fair_share_server(jobs, capacity):
    scalar = ScalarBatchServer(capacity, 0.0)
    # two completion batches can land on the same float time, so the
    # groups are compared as one completion order (each group in
    # arrival order, as FairShareServer resumes it)
    ev_s = [(t, slot) for t, group in drain(scalar, jobs) for slot in group]
    ev_d, des = drain_des(capacity, jobs)
    assert [slot for _t, slot in ev_s] == [slot for _t, slot in ev_d]
    for (ts, _), (td, _) in zip(ev_s, ev_d):
        assert rel_err(ts, td) <= REL_TOL
    assert rel_err(scalar.busy_time, des.busy_time) <= REL_TOL
    assert rel_err(scalar.total_served, des.total_served) <= REL_TOL


def test_scalar_server_rejoins_uniform_lane_like_des():
    # once the one odd cap leaves, FairShareServer is back on its
    # uniform path (capacity / n for everyone); the batch server must
    # follow, or the twins' rates differ by ulps down the water-fill
    # chain and their completion times drift off the DES server's
    jobs = [(1.0, 1e3)] + [(1000.0 * (k // 2 + 1), None)
                           for k in range(40)]
    scalar = ScalarBatchServer(0.1, 0.0)
    ev_s = [(t, slot) for t, group in drain(scalar, jobs) for slot in group]
    ev_d, _des = drain_des(0.1, jobs)
    assert ev_s == ev_d


def test_uniform_batch_completes_together():
    srv = ScalarBatchServer(100.0, 0.0)
    events = drain(srv, [(50.0, None)] * 8)
    assert len(events) == 1
    t, group = events[0]
    assert group == list(range(8))
    assert rel_err(t, 8 * 50.0 / 100.0) <= REL_TOL


# ----------------------------------------------------------------------
# CohortEngine semantics
# ----------------------------------------------------------------------

def test_engine_runs_identical_threads_in_parallel():
    # four identical single-segment threads on one server: all finish
    # together at demand / (capacity / 4)
    programs = [[(SRV, 0, 100.0, None)] for _ in range(4)]
    eng = CohortEngine(0.0, [200.0], programs)
    end = eng.run()
    assert rel_err(end, 100.0 / (200.0 / 4)) <= REL_TOL


def test_engine_par_segment_joins_all_parts():
    # one thread issuing to both servers; ends at the slower part
    programs = [[(PAR, ((0, 100.0, None), (1, 400.0, None)))]]
    eng = CohortEngine(0.0, [100.0, 100.0], programs)
    assert rel_err(eng.run(), 4.0) <= REL_TOL


def test_engine_sleep_and_home_server():
    programs = [[(SLEEP, 2.5), (SRV, None, 10.0, None)]]
    eng = CohortEngine(1.0, [10.0, 10.0], programs, own_sids=[1])
    assert rel_err(eng.run(), 1.0 + 2.5 + 1.0) <= REL_TOL
    assert eng.servers[0].busy_time == 0.0
    assert eng.servers[1].busy_time > 0.0


def test_engine_lock_serializes_and_counts_waits():
    # two threads racing for one lock; the critical section is 1s long
    seg = [(ACQ, "L"), (SRV, 0, 10.0, 10.0), (REL, "L")]
    eng = CohortEngine(0.0, [100.0], [list(seg), list(seg)])
    end = eng.run()
    assert rel_err(end, 2.0) <= REL_TOL
    assert eng.total_lock_waits() == 1
    assert rel_err(eng.total_lock_wait_time(), 1.0) <= REL_TOL


def test_engine_work_queue_drains_in_fifo_order():
    from collections import deque

    items = deque([(SRV, 0, 10.0, 10.0)] for _ in range(6))
    eng = CohortEngine(0.0, [100.0], [[] for _ in range(2)], queue=items)
    # 6 one-second items over 2 workers -> 3 seconds
    assert rel_err(eng.run(), 3.0) <= REL_TOL
    assert not items


def test_engine_deadlock_raises():
    # a thread that acquires twice without releasing blocks forever
    programs = [[(ACQ, "L"), (ACQ, "L"), (REL, "L")]]
    with pytest.raises(DesError):
        CohortEngine(0.0, [10.0], programs).run()


def test_lone_thread_double_acquire_raises():
    # the single-member replay never waits, so re-acquiring a held lock
    # is the deadlock the event loop would starve on
    with pytest.raises(DesError, match="deadlocked"):
        CohortEngine(0.0, [10.0], [[(ACQ, "L"), (ACQ, "L")]]).run()
    # the same guard spans a one-worker queue's items
    from collections import deque

    eng = CohortEngine(0.0, [10.0], [[]], queue=deque([[(ACQ, "L")],
                                                       [(ACQ, "L")]]))
    with pytest.raises(DesError, match="deadlocked"):
        eng.run()


def test_replay_alone_registers_the_locks_it_passes():
    locks = {}
    end = replay_alone([(ACQ, "A"), (SRV, 0, 10.0, None), (REL, "A"),
                        (SLEEP, 0.5), (REL, "B")], 1.0,
                       [ScalarBatchServer(10.0, 0.0)], locks=locks)
    assert end == 1.0 + 1.0 + 0.5
    assert sorted(locks) == ["A", "B"]
    assert all(lk.holder is None for lk in locks.values())


def test_engine_lock_handoff_is_fifo_by_arrival():
    """Contended releases must hand the lock to the *earliest* waiter.

    Three threads reach the lock at t=0, 0.1 and 0.2 with critical
    sections of 1, 10 and 1 seconds.  Under FIFO hand-off the waits
    are 0.9 and 10.8 (total 11.7); a LIFO hand-off would total 2.7,
    so the aggregate wait time pins the ordering.
    """
    def prog(delay, crit):
        return [(SLEEP, delay), (ACQ, "L"), (SRV, 0, crit, None),
                (REL, "L")]

    eng = CohortEngine(0.0, [1.0, 1.0],
                       [prog(0.0, 1.0), prog(0.1, 10.0),
                        prog(0.2, 1.0)])
    end = eng.run()
    assert end == pytest.approx(12.0)
    assert eng.locks["L"].waits == 2
    assert eng.total_lock_wait_time() == pytest.approx(11.7)


def test_engine_lock_handoff_matches_des_lock():
    """The same staggered-contention scenario on the DES SimLock must
    produce the identical timeline and wait accounting."""
    from repro.des import SimLock

    sim = Simulator()
    lock = SimLock(sim)

    def worker(sim, delay, crit):
        yield sim.timeout(delay)
        grant = yield lock.acquire()
        yield sim.timeout(crit)
        lock.release(grant)

    for delay, crit in ((0.0, 1.0), (0.1, 10.0), (0.2, 1.0)):
        sim.process(worker(sim, delay, crit))
    sim.run()
    assert sim.now == pytest.approx(12.0)
    assert lock.total_waits == 2
    assert lock.total_wait_time == pytest.approx(11.7)
