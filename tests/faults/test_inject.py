"""Spec derating, job splitting and faulted macro runs (both engines)."""

import pytest

from repro.faults import (
    FaultPlan,
    ScheduledFault,
    derate_conventional,
    derate_mta,
    run_faulted_conventional,
    run_faulted_mta,
    split_job,
)
from repro.machines import exemplar
from repro.machines.machine import ConventionalMachine
from repro.mta import MtaMachine, mta
from repro.workload import JobBuilder, OpCounts, ThreadProgramBuilder

from tests.parity import REL_TOL, assert_equivalent


def small_job(n_steps=4, name="fault-demo"):
    b = JobBuilder(name)
    for i in range(n_steps):
        b.serial(f"s{i}", OpCounts(falu=5e5, load=2e5, store=5e4))
    return b.build()


def parallel_job(name="fault-par"):
    threads = [
        ThreadProgramBuilder(f"t{t}").compute(
            "work", OpCounts(falu=4e5, load=3e5)).build()
        for t in range(8)
    ]
    return (JobBuilder(name)
            .serial("setup", OpCounts(falu=1e5))
            .parallel(threads, thread_kind="sw")
            .serial("reduce", OpCounts(falu=1e5))
            .build())


# ----------------------------------------------------------------------
# derating
# ----------------------------------------------------------------------

def test_derate_mta_streams_and_network():
    spec = mta(2)
    out = derate_mta(spec, [ScheduledFault("streams", 0, 1.0),
                            ScheduledFault("bank-hotspot", 0, 0.5)])
    assert out.streams_per_processor < spec.streams_per_processor
    assert out.network_words_per_cycle == pytest.approx(
        spec.network_words_per_cycle * 0.6)
    # inapplicable kinds are ignored
    same = derate_mta(spec, [ScheduledFault("cache-ways", 0, 1.0)])
    assert same == spec


def test_derate_mta_febit():
    spec = mta(2)
    out = derate_mta(spec, [ScheduledFault("febit-stall", 0, 0.5)])
    assert out.mem_latency_cycles == pytest.approx(
        spec.mem_latency_cycles * 2.5)
    assert out.thread_costs["sw"].sync_cycles == pytest.approx(
        spec.thread_costs["sw"].sync_cycles * 11.0)


def test_derate_conventional():
    spec = exemplar(4)
    out = derate_conventional(
        spec, [ScheduledFault("cache-ways", 0, 1.0),
               ScheduledFault("mem-latency", 0, 1.0),
               ScheduledFault("bank-hotspot", 0, 0.25)])
    assert out.cache.assoc == 1
    assert out.cache.capacity_bytes == pytest.approx(
        spec.cache.capacity_bytes / spec.cache.assoc)
    assert out.mem.miss_latency_s == pytest.approx(
        spec.mem.miss_latency_s * 4.0)
    assert out.mem.bandwidth_bytes_per_s == pytest.approx(
        spec.mem.bandwidth_bytes_per_s * 0.8)
    assert derate_conventional(
        spec, [ScheduledFault("streams", 0, 1.0)]) == spec


def test_derate_severity_monotone():
    spec = mta(2)
    mild = derate_mta(spec, [ScheduledFault("streams", 0, 0.3)])
    harsh = derate_mta(spec, [ScheduledFault("streams", 0, 0.9)])
    assert (harsh.streams_per_processor < mild.streams_per_processor
            < spec.streams_per_processor)


# ----------------------------------------------------------------------
# job splitting
# ----------------------------------------------------------------------

def test_split_job_segments_cover_steps():
    job = small_job(5)
    segs = split_job(job, [2, 4])
    assert [len(s.steps) for s in segs] == [2, 2, 1]
    flat = tuple(st for s in segs for st in s.steps)
    assert flat == job.steps


def test_split_job_noop_boundaries():
    job = small_job(3)
    assert split_job(job, [0, 3, 99]) == [job]
    assert split_job(job, []) == [job]


def test_split_preserves_simulated_time():
    """Steps are barriers: running the segments back to back on the
    same machine must reproduce the unsplit wall time exactly."""
    job = parallel_job()
    machine = MtaMachine(mta(2))
    whole = machine.run(job).seconds
    parts = sum(machine.run(s).seconds
                for s in split_job(job, [1, 2]))
    assert abs(parts - whole) <= REL_TOL * whole


# ----------------------------------------------------------------------
# faulted runs
# ----------------------------------------------------------------------

def test_faulted_run_slower_and_attributed():
    job = parallel_job()
    plan = FaultPlan.parse("streams:0.0:0.9,bank-hotspot:0.5:0.5",
                           seed=1)
    healthy = MtaMachine(mta(2)).run(job).seconds
    run = run_faulted_mta(mta(2), job, plan)
    assert run.seconds > healthy
    assert run.n_segments == 2          # hotspot lands mid-job
    assert run.stats["faults_injected"] == 2.0
    assert run.stats["fault_streams_severity"] == 0.9
    assert run.stats["fault_bank-hotspot_step"] == 1.0


def test_faulted_run_conventional():
    job = parallel_job()
    plan = FaultPlan.parse("mem-latency:0.0:1.0", seed=1)
    healthy = ConventionalMachine(exemplar(4)).run(job).seconds
    run = run_faulted_conventional(exemplar(4), job, plan)
    assert run.seconds >= healthy
    assert run.stats["faults_injected"] == 1.0


@pytest.mark.parametrize("faults", [
    "streams:0.4:0.9",
    "bank-hotspot,febit-stall",
    "streams,bank-hotspot,febit-stall,cache-ways,mem-latency",
])
def test_faulted_engine_parity(faults):
    """Identical (plan, seed): byte-identical schedules and 1e-9
    seconds agreement between the DES and cohort engines."""
    job = parallel_job()
    plan = FaultPlan.parse(faults, seed=5)
    des = run_faulted_mta(mta(2), job, plan, engine="des")
    coh = run_faulted_mta(mta(2), job, plan, engine="closed")
    assert des.schedule == coh.schedule
    assert_equivalent(des, coh)

    cdes = run_faulted_conventional(exemplar(4), job, plan, engine="des")
    ccoh = run_faulted_conventional(exemplar(4), job, plan,
                                    engine="closed")
    assert cdes.schedule == ccoh.schedule
    assert_equivalent(cdes, ccoh)
