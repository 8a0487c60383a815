"""Closed-form vs event-stepped cohort engine equivalence.

The closed-form layers (class compression and convoy-drain
replication) and the single-member replay are an arithmetic shortcut,
not a model change:
for any region the engine accepts, running with the layers on must
reproduce the event-stepped timeline -- completion order, completion
times, lock-wait statistics, server busy/served accounting -- to
1e-12 relative.  Random convoy shapes drive both configurations of
the same :class:`CohortEngine` and compare everything the machine
models consume.
"""

from hypothesis import given, settings, strategies as st

from repro.des.batch import (
    ACQ,
    REL,
    SLEEP,
    SRV,
    CohortEngine,
    ScalarBatchServer,
)
from repro.machines import ConventionalMachine, exemplar
from repro.workload.cohort import ENGINE_ENV, resolve_engine

RTOL = 1e-12


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1e-12)


# ----------------------------------------------------------------------
# random convoy shapes
# ----------------------------------------------------------------------

@st.composite
def convoy_cases(draw):
    """A region of weighted thread classes contending on one lock.

    Classes share the pre-phase (so lock arrivals keep the engines'
    common FIFO order) and differ in critical-section length; weights
    cover the compressed-entity paths (armed passthrough, splits,
    parked resumes, drain replication) and k > 1 covers class
    boundaries falling back to stepped grants.  A drawn ``locked``
    flag of False drops the ``ACQ``/``REL`` pair, leaving lock-free
    lockstep classes; one hold may be ``0.0``, a critical section that
    is only a sleep, or empty when the sleep is also zero.

    Generated classes are contiguous and pairwise distinct (hold times
    are drawn unique so no two classes collapse into one);
    :func:`tie_cases` covers classes whose members interleave.
    """
    k = draw(st.integers(min_value=1, max_value=3))
    weights = draw(st.lists(st.integers(min_value=1, max_value=40),
                            min_size=k, max_size=k))
    locked = draw(st.booleans())
    pre = draw(st.floats(min_value=0.0, max_value=50.0))
    pre_cap = draw(st.one_of(st.none(),
                             st.floats(min_value=0.5, max_value=20.0)))
    holds = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0),
                          min_size=k, max_size=k, unique=True))
    zero_at = draw(st.one_of(st.none(),
                             st.integers(min_value=0, max_value=k - 1)))
    if zero_at is not None:
        holds[zero_at] = 0.0
    hold_sleep = draw(st.floats(min_value=0.0, max_value=2.0))
    capacity = draw(st.floats(min_value=1.0, max_value=100.0))
    programs = []
    for i in range(k):
        prog = []
        if pre > 0:
            prog.append((SRV, 0, pre, pre_cap))
        if locked:
            prog.append((ACQ, "L"))
        prog.append((SRV, 0, holds[i], None))
        if hold_sleep > 0:
            prog.append((SLEEP, hold_sleep))
        if locked:
            prog.append((REL, "L"))
        programs.extend([list(prog)] * weights[i])
    return programs, capacity


def run_engine(programs, capacity, closed_form, own_sids=None):
    """``capacity`` is one server's, or a list of one per server."""
    caps = capacity if isinstance(capacity, list) else [capacity]
    eng = CohortEngine(0.0, caps, [list(p) for p in programs],
                       own_sids=own_sids, closed_form=closed_form)
    end = eng.run()
    return eng, end


def assert_engines_agree(programs, capacity, own_sids=None):
    fast, end_f = run_engine(programs, capacity, closed_form=True,
                             own_sids=own_sids)
    slow, end_s = run_engine(programs, capacity, closed_form=False,
                             own_sids=own_sids)
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


@settings(max_examples=150, deadline=None)
@given(convoy_cases())
def test_closed_form_matches_event_stepped_scalar(case):
    programs, capacity = case
    assert_engines_agree(programs, capacity)


# ----------------------------------------------------------------------
# cross-class ties: classes interleaved round-robin over servers
# ----------------------------------------------------------------------

@st.composite
def tie_cases(draw):
    """Identical-program classes that reach one lock in one event.

    Members are pinned round-robin over two or more symmetric servers,
    as the MTA pins threads to processors, so each server's members
    form one class and all classes finish the pre-phase together.  DES
    queues the tied members one at a time in creation order, so the
    queue alternates between classes.  One extra thread loads only
    server 0 while the convoy runs, so a critical section's length
    depends on which class holds the lock: the interleave is
    observable.
    """
    n_srv = draw(st.integers(min_value=2, max_value=4))
    per_class = draw(st.integers(min_value=1, max_value=12))
    capacity = draw(st.floats(min_value=1.0, max_value=100.0))
    pre = draw(st.floats(min_value=0.1, max_value=20.0))
    hold = draw(st.floats(min_value=1e-2, max_value=5.0))
    hold_sleep = draw(st.sampled_from([0.0, 0.0, 0.25]))
    load = draw(st.floats(min_value=0.1, max_value=50.0))
    # start the load somewhere inside the convoy
    pre_end = pre * per_class / capacity
    convoy = n_srv * per_class * (hold / capacity + hold_sleep)
    at = pre_end + draw(st.floats(min_value=0.0, max_value=1.0)) * convoy
    cs = [(SRV, None, pre, None), (ACQ, "L"), (SRV, None, hold, None)]
    if hold_sleep:
        cs.append((SLEEP, hold_sleep))
    cs.append((REL, "L"))
    n = n_srv * per_class
    programs = [list(cs) for _ in range(n)]
    programs.append([(SLEEP, at), (SRV, None, load, None)])
    own = [i % n_srv for i in range(n)] + [0]
    return programs, [capacity] * n_srv, own


@settings(max_examples=150, deadline=None)
@given(tie_cases())
def test_tied_classes_queue_in_creation_order(case):
    programs, caps, own = case
    assert_engines_agree(programs, caps, own_sids=own)


def test_tied_classes_minimal_case():
    # homes 0, 1, 0, 1: DES queues members 1, 2, 3 behind member 0,
    # so the class-0 member's pass overlaps the load on server 0
    cs = [(SRV, None, 3.0, None), (ACQ, "L"), (SRV, None, 1.0, None),
          (REL, "L")]
    programs = [list(cs) for _ in range(4)]
    programs.append([(SLEEP, 0.65), (SRV, None, 5.0, None)])
    own = [0, 1, 0, 1, 0]
    fast, slow = assert_engines_agree(programs, [10.0, 10.0],
                                      own_sids=own)
    assert fast.stats["classes"] == 3
    assert close(fast.total_lock_wait_time(), 0.85)
    assert close(slow.total_lock_wait_time(), 0.85)


def test_tied_classes_drain_whole_cycles():
    # 2 x 40 members with no outside load: after one measured cycle
    # (one pass per class) the interleaved queue replays as drains
    cs = [(SRV, None, 3.0, None), (ACQ, "L"), (SRV, None, 1.0, None),
          (REL, "L")]
    programs = [list(cs) for _ in range(80)]
    own = [i % 2 for i in range(80)]
    fast, _ = assert_engines_agree(programs, [10.0, 10.0], own_sids=own)
    assert fast.stats["classes"] == 2
    assert fast.stats["drained_grants"] > 0
    assert fast.stats["drained_grants"] % 2 == 0   # whole cycles
    assert fast.stats["drained_grants"] > fast.stats["stepped_grants"]


def test_classes_tied_apart_keep_blocks():
    # class 1 sleeps, then serves, so its seqs are handed out an event
    # after class 0's: both reach the lock at t = 2, but DES queues
    # all of class 0 before any of class 1 -- no interleave
    a = [(SRV, None, 2.0, None), (ACQ, "L"), (SRV, None, 1.0, None),
         (REL, "L")]
    b = [(SLEEP, 1.0), (SRV, None, 1.0, None), (ACQ, "L"),
         (SRV, None, 1.0, None), (REL, "L")]
    programs = [list(a) if i % 2 == 0 else list(b) for i in range(6)]
    programs.append([(SLEEP, 2.05), (SRV, None, 5.0, None)])
    own = [i % 2 for i in range(6)] + [0]
    fast, _ = assert_engines_agree(programs, [3.0, 3.0], own_sids=own)
    assert fast.stats["classes"] == 3


# ----------------------------------------------------------------------
# dispatch accounting
# ----------------------------------------------------------------------

def test_single_class_convoy_runs_on_drains():
    # a one-class convoy event-steps: the armed passthrough splits on
    # the first pass, one grant is stepped while the watch measures it,
    # and the other 30 replay as one drain
    prog = [(SRV, 0, 5.0, None), (ACQ, "L"), (SRV, 0, 1.0, None),
            (REL, "L")]
    fast, _ = run_engine([list(prog)] * 32, 10.0, closed_form=True)
    assert fast.stats["closed_form"] == 0
    assert fast.stats["classes"] == 1
    assert fast.stats["drained_grants"] == 30
    assert fast.stats["stepped_grants"] == 1
    assert fast.stats["events"] == 3
    assert_engines_agree([list(prog)] * 32, 10.0)


def test_multi_class_convoy_uses_drain_replication():
    def prog(hold):
        return [(SRV, 0, 5.0, None), (ACQ, "L"), (SRV, 0, hold, None),
                (REL, "L")]

    programs = [list(prog(1.0))] * 30 + [list(prog(2.0))] * 30
    fast, _ = run_engine(programs, 10.0, closed_form=True)
    assert fast.stats["closed_form"] == 0
    assert fast.stats["classes"] == 2
    assert fast.stats["drained_grants"] > 0
    # replication replaces most per-grant events
    assert fast.stats["drained_grants"] > fast.stats["stepped_grants"]
    assert_engines_agree(programs, 10.0)


def test_event_stepped_engine_reports_no_closed_form():
    prog = [(SRV, 0, 5.0, None)]
    slow, _ = run_engine([list(prog)] * 8, 10.0, closed_form=False)
    assert slow.stats["classes"] == 8
    assert slow.stats["closed_form"] == 0
    assert slow.stats["drained_grants"] == 0


def test_engine_env_reaches_driver_not_engine(monkeypatch):
    """``REPRO_ENGINE`` reaches the engine only through the machine
    driver, which passes ``closed_form``; the engine never reads it."""
    monkeypatch.setenv(ENGINE_ENV, "stepped")
    assert resolve_engine() == "stepped"
    assert ConventionalMachine(exemplar(2)).engine == "stepped"
    eng = CohortEngine(0.0, [10.0], [[(SRV, 0, 1.0, None)]] * 4)
    assert eng.closed_form
    assert eng.stats["classes"] == 1
    eng = CohortEngine(0.0, [10.0], [[(SRV, 0, 1.0, None)]] * 4,
                       closed_form=False)
    assert not eng.closed_form
    assert eng.stats["classes"] == 4


# ----------------------------------------------------------------------
# scalar finish-time frontier (satellite: indexed early exit)
# ----------------------------------------------------------------------

def test_scalar_frontier_still_batches_near_ties():
    # two jobs within the 1e-9 completion tolerance must finish
    # together even though the frontier fast path exists
    srv = ScalarBatchServer(10.0, 0.0)
    srv.add(0, 1.0, None, 0, 0.0)
    srv.add(1, 1.0 * (1 + 5e-10), None, 1, 0.0)
    srv.add(2, 2.0, None, 2, 0.0)
    srv.flush(0.0)
    done = sorted(s for _q, s in srv.finish(srv.due))
    assert done == [0, 1]
    srv.flush(srv._last)
    done = [s for _q, s in srv.finish(srv.due)]
    assert done == [2]
    assert srv.n == 0


def test_scalar_frontier_single_completion_path():
    srv = ScalarBatchServer(10.0, 0.0)
    for slot, d in enumerate([1.0, 2.0, 3.0, 4.0]):
        srv.add(slot, d, None, slot, 0.0)
    order = []
    srv.flush(0.0)
    while srv.n:
        done = srv.finish(srv.due)
        assert len(done) == 1
        order.append(done[0][1])
        srv.flush(srv._last)
    assert order == [0, 1, 2, 3]


def test_closed_form_default_is_on(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    assert resolve_engine() == "closed"
    assert CohortEngine(0.0, [10.0], [[(SRV, 0, 1.0, None)]]).closed_form
