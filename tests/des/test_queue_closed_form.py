"""Work-queue regions: the cohort engine's code paths against each other.

A multi-worker work-queue region event-steps on the shared two-server
loop whatever the closed-form switch says; only a one-worker queue
takes a closed-form shortcut (the single-member replay).  So
``closed_form=True`` and ``closed_form=False`` -- which differ where
the single-member replay takes over a one-worker queue -- must
reproduce the same timeline: completion order, completion times,
lock-wait statistics, server busy/served accounting, to 1e-12
relative.

Random region shapes (CPU lane uncontended by machine-geometry
construction, bus drawn contended or not, lock-protected bus sections,
pop-synchronization costs) drive both configurations and compare
everything the machine models consume.  Demands are drawn on a coarse
1/8 grid so distinct values differ by far more than the engines' 1e-9
exactness envelope.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.des.batch import (
    ACQ,
    REL,
    SLEEP,
    SRV,
    CohortEngine,
)
from repro.workload.cohort import ENGINE_ENV, resolve_engine

RTOL = 1e-12


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1e-12)


# ----------------------------------------------------------------------
# random work-queue regions
# ----------------------------------------------------------------------

@st.composite
def queue_cases(draw):
    """A bus-coupled work-queue region.

    Server 0 is the CPU lane: uniform per-thread cap with capacity
    ``cap * k`` -- the exact geometry of ``n_cpus x clock`` machines,
    uncontended for any worker count.  Server 1 is the bus: drawn
    either uncontended (``capacity >= k * cap``) or contended (its
    fair share really changes with membership).  Queue items come from
    a small template pool (real regions are homogeneous-ish),
    optionally with a lock-protected bus section and a sleep.
    """
    k = draw(st.integers(min_value=1, max_value=4))
    cap_cpu = draw(st.sampled_from([2.0, 4.0, 8.0]))
    cap_bus = draw(st.sampled_from([1.0, 3.0, 5.0]))
    contended = draw(st.booleans()) and k >= 2
    if contended:
        capacity_bus = cap_bus * draw(
            st.integers(min_value=1, max_value=k - 1))
    else:
        capacity_bus = cap_bus * (k + draw(
            st.integers(min_value=0, max_value=2)))

    def q8() -> float:
        return draw(st.integers(min_value=1, max_value=64)) / 8.0

    n_templates = draw(st.integers(min_value=1, max_value=3))
    templates = []
    for _ in range(n_templates):
        item = [(SRV, 0, q8(), cap_cpu)]
        if draw(st.booleans()):
            item.append((SRV, 1, q8(), cap_bus))
        if draw(st.booleans()):
            name = draw(st.sampled_from(["L", "M"]))
            item.append((ACQ, name))
            item.append((SRV, 1, q8(), cap_bus))
            item.append((REL, name))
        if draw(st.booleans()):
            item.append((SLEEP, q8()))
        templates.append(item)
    m = draw(st.integers(min_value=1, max_value=10))
    items = [list(templates[draw(st.integers(0, n_templates - 1))])
             for _ in range(m)]
    # per-worker pop/bootstrap cost on the CPU lane
    programs = [[(SRV, 0, q8(), cap_cpu)] for _ in range(k)]
    return programs, items, [cap_cpu * k, capacity_bus]


def run_queue_engine(programs, items, capacities, closed_form):
    """Run one work-queue region."""
    eng = CohortEngine(0.0, capacities,
                       [list(p) for p in programs],
                       own_sids=[0] * len(programs),
                       queue=deque(list(i) for i in items),
                       closed_form=closed_form)
    end = eng.run()
    return eng, end


def assert_queue_engines_agree(programs, items, capacities):
    """Run the region with the closed-form layers on and off and
    assert the two runs agree to ``RTOL``."""
    fast, end_f = run_queue_engine(programs, items, capacities, True)
    slow, end_s = run_queue_engine(programs, items, capacities, False)
    assert close(end_f, end_s), (end_f, end_s)
    assert len(fast.done_times) == len(slow.done_times)
    for tf, ts in zip(fast.done_times, slow.done_times):
        assert close(tf, ts), (tf, ts)
    # accumulated quantities (busy/served/wait) are sums of dt values
    # the event-stepped engine rounds at the absolute-time magnitude,
    # so their float error scales with the timeline, not with the sum
    scale = max(abs(end_s), 1.0)
    assert fast.locks.keys() == slow.locks.keys()
    for name, lf in fast.locks.items():
        ls = slow.locks[name]
        assert lf.waits == ls.waits
        assert lf.max_depth == ls.max_depth
        assert lf.hist == ls.hist
        assert abs(lf.wait_time - ls.wait_time) \
            <= RTOL * max(abs(ls.wait_time), scale)
    for sf, ss in zip(fast.servers, slow.servers):
        assert abs(sf.busy_time - ss.busy_time) \
            <= RTOL * max(abs(ss.busy_time), scale)
        assert abs(sf.total_served - ss.total_served) \
            <= RTOL * max(abs(ss.total_served), scale)
    return fast, slow


@settings(max_examples=60, deadline=None)
@given(queue_cases())
def test_queue_closed_form_matches_event_stepped(case):
    programs, items, capacities = case
    assert_queue_engines_agree(programs, items, capacities)


# ----------------------------------------------------------------------
# fixed shapes
# ----------------------------------------------------------------------

POP = [(SRV, 0, 1.0, 4.0)]


def items_of(n, segs):
    return [list(segs) for _ in range(n)]


def test_two_contended_servers_fall_back_to_stepping():
    # both servers over-committed: every worker event-steps on the
    # shared loop, so agreement comes from that one path
    item = [(SRV, 0, 2.0, 8.0), (SRV, 1, 2.0, 2.0)]
    fast, _ = run_queue_engine([list(POP)] * 3, items_of(6, item),
                               [8.0, 4.0], closed_form=True)
    assert fast.stats["closed_form"] == 0
    assert fast.stats["events"] > 0
    assert_queue_engines_agree([list(POP)] * 3, items_of(6, item),
                               [8.0, 4.0])


def test_queue_wait_statistics_cross_engine():
    """Lock queue-wait statistics (waits, wait_time, depth histogram)
    must agree exactly when every grant order is forced, and to RTOL
    on accumulated time -- between the closed-form and event-stepped
    engines."""
    item = [(SRV, 0, 1.0, 4.0), (ACQ, "L"), (SRV, 1, 3.0, 2.0),
            (REL, "L")]
    fast, slow = assert_queue_engines_agree(
        [list(POP)] * 3, items_of(9, item), [12.0, 8.0])
    lf = fast.locks["L"]
    assert lf.waits > 0          # the case actually contends the lock
    assert lf.wait_time > 0.0
    assert lf.max_depth >= 1
    assert lf.hist


def test_closed_form_default_is_on(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    assert resolve_engine() == "closed"
    assert CohortEngine(0.0, [10.0], [list(POP)], queue=deque()).closed_form
