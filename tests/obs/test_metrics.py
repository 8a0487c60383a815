"""Metric rollups, and DES-vs-cohort metric parity (acceptance bar).

Both engines must report the *same metric fields* for a homogeneous
region, with values agreeing to 1e-9 -- otherwise "run it on the fast
path" would change what the experiment reports, not just how fast it
reports it.
"""

import pytest

from repro.des import SimLock, Simulator
from repro.machines import ConventionalMachine, exemplar
from repro.mta import MtaMachine, mta
from repro.obs.metrics import (
    MachineMetrics,
    hist_fields,
    lock_summary_from_resources,
    merge_lock_summaries,
)
from repro.obs.trace import TraceRecorder
from repro.workload import JobBuilder, OpCounts, ThreadProgramBuilder

from tests.parity import REL_TOL, rel_err  # noqa: E402

#: stats fields the observability layer adds on every machine model
OBS_FIELDS = ("lock_wait_time", "lock_convoy_max",
              "serial_wall_seconds", "region_wall_seconds")


def homogeneous_job(n_threads=6, with_lock=True, balanced=False):
    threads = []
    for i in range(n_threads):
        b = ThreadProgramBuilder(f"t{i}")
        skew = 0.0 if balanced else 0.2 * i
        b.compute("c", OpCounts(ialu=2e5 * (1 + skew), load=5e4))
        if with_lock:
            b.critical("tally", "crit", OpCounts(store=200.0, sync=2.0))
        threads.append(b.build())
    return (JobBuilder("homog")
            .serial("setup", OpCounts(ialu=5e4))
            .parallel(threads)
            .serial("teardown", OpCounts(ialu=2e4))
            .build())


# ----------------------------------------------------------------------
# engine parity
# ----------------------------------------------------------------------

def test_des_and_cohort_report_identical_metric_fields():
    job = homogeneous_job()
    des = ConventionalMachine(exemplar(4), engine="des").run(job)
    coh = ConventionalMachine(exemplar(4), engine="closed").run(job)
    assert set(des.stats) == set(coh.stats)
    for field in OBS_FIELDS:
        assert rel_err(des.stats[field], coh.stats[field]) <= REL_TOL, \
            (field, des.stats[field], coh.stats[field])
    # convoy histograms are integer counts: exactly equal
    for key in des.stats:
        if key.startswith("lock_convoy_hist_"):
            assert des.stats[key] == coh.stats[key], key


def test_mta_engine_parity_on_homogeneous_region():
    job = homogeneous_job(n_threads=8)
    des = MtaMachine(mta(1), engine="des").run(job)
    coh = MtaMachine(mta(1), engine="closed").run(job)
    assert set(des.stats) == set(coh.stats)
    for field in OBS_FIELDS:
        assert rel_err(des.stats[field], coh.stats[field]) <= REL_TOL, \
            (field, des.stats[field], coh.stats[field])


def test_region_walls_partition_the_run():
    job = homogeneous_job(with_lock=False)
    for engine in ("des", "closed"):
        res = ConventionalMachine(
            exemplar(4), engine=engine).run(job)
        total = (res.stats["serial_wall_seconds"]
                 + res.stats["region_wall_seconds"])
        assert rel_err(total, res.seconds) <= 1e-9
        assert res.stats["serial_wall_seconds"] > 0
        assert res.stats["region_wall_seconds"] > 0


def test_contended_run_reports_convoy_stats():
    job = homogeneous_job(n_threads=8, balanced=True)
    for engine in ("des", "closed"):
        res = ConventionalMachine(
            exemplar(2), engine=engine).run(job)
        assert res.stats["lock_wait_time"] > 0
        assert res.stats["lock_convoy_max"] >= 2
        hist_keys = [k for k in res.stats
                     if k.startswith("lock_convoy_hist_")]
        assert hist_keys
        # histogram counts every contended acquire exactly once
        assert sum(res.stats[k] for k in hist_keys) == \
            res.stats["lock_acquisitions"]


# ----------------------------------------------------------------------
# collector mechanics
# ----------------------------------------------------------------------

def test_machine_metrics_rollup_splits_serial_and_parallel():
    m = MachineMetrics()
    m.region("serial", "cohort", "[0] setup", 0.0, 1.5)
    m.region("parallel", "des", "[1] region", 1.5, 4.0, n_threads=8)
    m.region("serial", "cohort", "[2] teardown", 4.0, 4.25)
    roll = m.rollup()
    assert roll["serial_wall_seconds"] == pytest.approx(1.75)
    assert roll["region_wall_seconds"] == pytest.approx(2.5)


def test_machine_metrics_forwards_regions_to_tracer():
    tr = TraceRecorder()
    tr.begin_run("x")
    m = MachineMetrics(tracer=tr)
    m.region("parallel", "cohort", "[0] r", 0.0, 2.0, n_threads=4)
    (rec,) = tr.records
    assert rec[0] == "region"
    assert rec[4] == ("[0] r", "cohort", 4) and rec[5] == 2.0


def test_lock_summary_from_des_resources():
    sim = Simulator()
    lock = SimLock(sim, name="L")

    def worker(sim):
        g = yield lock.acquire()
        yield sim.timeout(1)
        lock.release(g)

    for _ in range(4):
        sim.process(worker(sim))
    sim.run()
    summary = lock_summary_from_resources([lock])
    assert summary["waits"] == 3
    assert summary["wait_time"] == pytest.approx(1 + 2 + 3)
    assert summary["convoy_max"] == 3
    # depths seen: 1, 2, 3 -> buckets 1, 2, 2
    assert summary["hist"] == {1: 1, 2: 2}


def test_merge_and_flatten_lock_summaries():
    a = {"waits": 2, "wait_time": 1.0, "convoy_max": 2, "hist": {1: 2}}
    b = {"waits": 3, "wait_time": 0.5, "convoy_max": 4,
         "hist": {1: 1, 4: 2}}
    merged = merge_lock_summaries(a, b)
    assert merged is a
    assert merged == {"waits": 5, "wait_time": 1.5, "convoy_max": 4,
                      "hist": {1: 3, 4: 2}}
    assert hist_fields(merged["hist"]) == {
        "lock_convoy_hist_1": 3.0, "lock_convoy_hist_4": 2.0}
    assert merge_lock_summaries({}, b)["waits"] == 3
