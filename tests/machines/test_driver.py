"""The one machine driver, seen from every family it runs.

Every family's result keeps its field order and its leading ``stats``
keys (the cache stores ``dataclasses.asdict(result)``, so a reorder
changes record bytes), both engines report the same ``stats`` keys in
the same order, and every region is counted on exactly one engine.
"""

import dataclasses

import pytest

from repro.machines import ConventionalMachine, cmt, exemplar
from repro.mta import MtaMachine, mta
from repro.workload import JobBuilder, OpCounts, ThreadProgramBuilder

CONVENTIONAL_FIELDS = ["machine", "job", "seconds", "cpu_utilization",
                       "bus_utilization", "lock_wait_seconds",
                       "n_threads_peak", "stats"]
MTA_FIELDS = ["machine", "job", "seconds", "issue_utilization",
              "network_utilization", "lock_wait_seconds",
              "n_threads_peak", "stats"]
CONVENTIONAL_LEAD = ["cpu_busy_time", "bus_busy_time", "lock_acquisitions"]
MTA_LEAD = ["network_busy_time", "issue_busy_time_total"]

FAMILIES = {
    "mta2": (lambda engine: MtaMachine(mta(2), engine=engine),
             MTA_FIELDS, MTA_LEAD),
    "exemplar4": (lambda engine: ConventionalMachine(exemplar(4),
                                                     engine=engine),
                  CONVENTIONAL_FIELDS, CONVENTIONAL_LEAD),
    "cmt64": (lambda engine: ConventionalMachine(cmt(64), engine=engine),
              CONVENTIONAL_FIELDS, CONVENTIONAL_LEAD),
}


def mixed_job():
    """A serial step, a region with a critical section, a work queue."""
    threads = [
        ThreadProgramBuilder(f"t{i}")
        .compute("c", OpCounts(ialu=1e5 * (1 + i), load=2e4))
        .critical("tally", "crit", OpCounts(store=100.0, sync=1.0))
        .build()
        for i in range(3)]
    items = [
        ThreadProgramBuilder(f"item{i}")
        .compute("c", OpCounts(falu=5e4 * (1 + i % 2), load=1e4))
        .build_work_item()
        for i in range(5)]
    return (JobBuilder("mixed")
            .serial("setup", OpCounts(ialu=3e4))
            .parallel(threads)
            .work_queue(items, 2)
            .build())


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_result_layout_and_engine_coverage(family):
    make, fields, lead = FAMILIES[family]
    job = mixed_job()
    n_regions = len(job.steps) - 1
    des, stepped, coh = (make(engine).run(job)
                         for engine in ("des", "stepped", "closed"))
    for result in (des, stepped, coh):
        assert list(dataclasses.asdict(result)) == fields
        assert list(result.stats)[:len(lead)] == lead
        assert (result.stats["cohort_regions"]
                + result.stats["des_regions"]) == n_regions
        assert (result.stats["cohort_serial_steps"]
                + result.stats["des_serial_steps"]) == 1
        assert result.n_threads_peak == 3
    assert list(des.stats) == list(stepped.stats) == list(coh.stats)
    # each engine setting really picks its engine for every step
    assert des.stats["des_regions"] == stepped.stats["cohort_regions"] \
        == coh.stats["cohort_regions"] == n_regions
    assert des.stats["des_serial_steps"] == coh.stats[
        "cohort_serial_steps"] == 1
