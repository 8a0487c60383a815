"""Event tracing: kernel hooks, Chrome export, schema validation."""

import pytest

from repro.des import SimBarrier, SimLock, Simulator
from repro.machines import ConventionalMachine, exemplar
from repro.obs.trace import (
    REGION_TID,
    TraceRecorder,
    active_tracer,
    describe_event,
    tracing,
    validate_chrome_trace,
)
from repro.workload import JobBuilder, OpCounts, ThreadProgramBuilder


def contended_sim(tr=None):
    """Two processes racing for one lock; returns the simulator."""
    sim = Simulator()
    if tr is not None:
        tr.begin_run("test/contended")
        sim.trace = tr
    lock = SimLock(sim, name="L")

    def worker(sim):
        grant = yield lock.acquire()
        yield sim.timeout(2)
        lock.release(grant)

    for i in range(2):
        sim.process(worker(sim), name=f"w{i}")
    sim.run()
    if tr is not None:
        tr.end_run(sim.now)
    return sim


def small_job():
    threads = [ThreadProgramBuilder(f"t{i}")
               .compute("c", OpCounts(ialu=1e5))
               .critical("L", "crit", OpCounts(store=50.0, sync=2.0))
               .build()
               for i in range(3)]
    return (JobBuilder("traced")
            .serial("setup", OpCounts(ialu=1e4))
            .parallel(threads)
            .build())


# ----------------------------------------------------------------------
# kernel-level recording
# ----------------------------------------------------------------------

def test_kernel_hooks_record_thread_and_lock_lifecycle():
    tr = TraceRecorder()
    contended_sim(tr)
    kinds = {rec[0] for rec in tr.records}
    # both workers start and end; the loser blocks, queues, unblocks
    assert {"start", "end", "block", "unblock",
            "acquire", "release", "queue", "run-end"} <= kinds
    # the queued record carries the waiting depth
    (queue_rec,) = [r for r in tr.records if r[0] == "queue"]
    assert queue_rec[4] == "L" and queue_rec[5] == 1


def test_tracing_disabled_records_nothing():
    tr = TraceRecorder()
    contended_sim(None)     # sim.trace stays None
    assert tr.records == [] and tr.dropped == 0


def test_to_chrome_slices_and_validation():
    tr = TraceRecorder()
    contended_sim(tr)
    obj = tr.to_chrome()
    n = validate_chrome_trace(obj)
    assert n == len(obj["traceEvents"]) > 0
    names = [e["name"] for e in obj["traceEvents"] if e["ph"] == "X"]
    # thread lifetime slices, a wait slice and two hold slices
    assert "w0" in names and "w1" in names
    assert any(nm.startswith("wait resource 'L'") for nm in names)
    assert sum(1 for nm in names if nm == "hold L") == 2


def test_max_events_caps_memory_not_correctness():
    tr = TraceRecorder(max_events=3)
    contended_sim(tr)
    assert len(tr.records) == 3
    assert tr.dropped > 0
    obj = tr.to_chrome()
    validate_chrome_trace(obj)
    assert obj["otherData"]["dropped_records"] == tr.dropped


def test_max_events_rejects_nonpositive():
    with pytest.raises(ValueError):
        TraceRecorder(max_events=0)


# ----------------------------------------------------------------------
# machine pickup through the process-wide active tracer
# ----------------------------------------------------------------------

def test_machine_attaches_active_tracer_des_path():
    with tracing() as tr:
        assert active_tracer() is tr
        ConventionalMachine(exemplar(4), engine="des").run(small_job())
    assert active_tracer() is None
    kinds = {rec[0] for rec in tr.records}
    assert "start" in kinds and "region" in kinds
    assert list(tr.run_labels.values()) == [
        "HP Exemplar S-Class[4p]/traced"]
    regions = [r for r in tr.records if r[0] == "region"]
    engines = {r[4][1] for r in regions}
    assert engines == {"des"}
    validate_chrome_trace(tr.to_chrome())


def test_machine_attaches_active_tracer_cohort_path():
    with tracing() as tr:
        ConventionalMachine(exemplar(4), engine="closed").run(small_job())
    regions = [r for r in tr.records if r[0] == "region"]
    # serial step + parallel region, both on the cohort engine
    assert {r[4][1] for r in regions} == {"cohort"}
    assert any(r[4][2] == 3 for r in regions)     # n_threads recorded
    obj = tr.to_chrome()
    validate_chrome_trace(obj)
    region_rows = [e for e in obj["traceEvents"]
                   if e["ph"] == "X" and e["tid"] == REGION_TID]
    assert len(region_rows) == len(regions)
    assert all(e["args"]["engine"] == "cohort" for e in region_rows)


def test_tracing_nests_and_restores():
    with tracing() as outer:
        with tracing() as inner:
            assert active_tracer() is inner
        assert active_tracer() is outer
    assert active_tracer() is None


# ----------------------------------------------------------------------
# describe_event / schema validation corners
# ----------------------------------------------------------------------

def test_describe_event_labels():
    sim = Simulator()
    assert describe_event(sim.timeout(2.5)) == "timeout(2.5)"
    bar = SimBarrier(sim, parties=2, name="gate")
    lock = SimLock(sim, name="L")
    got = {}

    def worker(sim):
        grant = yield lock.acquire()
        got["req"] = describe_event(grant)
        lock.release(grant)
        got["bar"] = describe_event(bar.wait())
        got["join"] = describe_event(sim.process(idle(sim), name="kid"))
        got["event"] = describe_event(sim.event())

    def idle(sim):
        yield sim.timeout(0)

    sim.process(worker(sim))
    sim.run()
    assert got["req"] == "resource 'L'"
    assert got["bar"] == "barrier 'gate'"
    assert got["join"] == "join 'kid'"
    assert got["event"] == "event"


@pytest.mark.parametrize("bad, msg", [
    ([], "JSON object"),
    ({}, "traceEvents"),
    ({"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "tid": 1}]},
     "unknown phase"),
    ({"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1,
                       "ts": -1.0, "dur": 1.0}]}, "bad ts"),
    ({"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1,
                       "ts": 0.0}]}, "bad dur"),
    ({"traceEvents": [{"ph": "M", "name": "x", "pid": 1, "tid": 1}]},
     "needs args"),
])
def test_validate_chrome_trace_rejects(bad, msg):
    with pytest.raises(ValueError, match=msg):
        validate_chrome_trace(bad)
