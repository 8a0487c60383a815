"""Tests for the happens-before race detector core."""

import pytest

from repro.analysis import analyze_job
from repro.workload.builder import make_phase
from repro.workload.ops import (
    AccessMode,
    OpCounts,
    SharedAccess,
    read_of,
    write_of,
)
from repro.workload.task import (
    Compute,
    Critical,
    Job,
    ParallelRegion,
    SerialStep,
    ThreadProgram,
    WorkItem,
    WorkQueueRegion,
)


def phase(name, accesses=()):
    return make_phase(name, OpCounts(ialu=10, load=10, store=5),
                      accesses=tuple(accesses))


def parallel_job(name, thread_accesses):
    threads = tuple(
        ThreadProgram(f"t{i}", (Compute(phase(f"p{i}", accs)),))
        for i, accs in enumerate(thread_accesses))
    return Job(name, (ParallelRegion(threads),))


# ----------------------------------------------------------------------
# SharedAccess semantics
# ----------------------------------------------------------------------

def test_access_range_overlap():
    assert write_of("a", 0, 9).overlaps(read_of("a", 9, 20))
    assert not write_of("a", 0, 9).overlaps(read_of("a", 10, 20))
    assert not write_of("a", 0, 9).overlaps(write_of("b", 0, 9))


def test_opaque_extent_overlaps_everything():
    assert write_of("a").overlaps(read_of("a", 5, 5))
    assert read_of("a", 5, 5).overlaps(write_of("a"))
    assert write_of("a").overlaps(write_of("a"))
    assert not write_of("a").bounded
    assert write_of("a").span() == "a[*]"
    assert write_of("a", 0, 9).span() == "a[0:9]"


def test_access_validation():
    with pytest.raises(ValueError):
        SharedAccess("a", AccessMode.READ, 5, None)
    with pytest.raises(ValueError):
        SharedAccess("a", AccessMode.READ, 5, 4)


# ----------------------------------------------------------------------
# verdicts on synthetic jobs
# ----------------------------------------------------------------------

def test_disjoint_ranges_are_clean():
    job = parallel_job("disjoint", [
        (read_of("a", 0, 99), write_of("b", i * 10, i * 10 + 9))
        for i in range(4)])
    report = analyze_job(job)
    assert report.clean and report.suppressed == 0


def test_shared_reads_are_clean():
    job = parallel_job("ro", [(read_of("a", 0, 99),)] * 4)
    assert analyze_job(job).clean


def test_overlapping_writes_race():
    job = parallel_job("overlap", [
        (write_of("b", i * 10, i * 10 + 10),)  # one past the chunk end
        for i in range(4)])
    report = analyze_job(job)
    assert not report.clean
    assert {f.hazard for f in report.findings} == {"data-race"}
    assert all(f.job == "overlap" for f in report.findings)


def test_write_write_on_whole_array_races_without_facts():
    job = parallel_job("nofacts", [(write_of("x"),)] * 3)
    report = analyze_job(job)
    assert [f.hazard for f in report.findings] == ["data-race"]
    assert report.findings[0].location == "x[*]"


def test_serial_steps_never_race():
    job = Job("serial", (
        SerialStep(phase("a", (write_of("x", 0, 9),))),
        SerialStep(phase("b", (write_of("x", 0, 9),))),
    ))
    assert analyze_job(job).clean


def test_single_worker_queue_is_serial():
    items = tuple(WorkItem(f"w{i}", (Compute(phase(f"m{i}",
                                                   (write_of("m"),))),))
                  for i in range(4))
    assert analyze_job(Job("q1", (WorkQueueRegion(items, 1),))).clean
    assert not analyze_job(Job("q2", (WorkQueueRegion(items, 2),))).clean


def test_common_lock_clears_conflict():
    items = tuple(
        WorkItem(f"w{i}", (Critical("L", phase(f"m{i}",
                                               (write_of("m", 3, 3),))),))
        for i in range(4))
    assert analyze_job(Job("locked", (WorkQueueRegion(items, 3),))).clean


def test_dropped_lock_is_lock_discipline():
    items = [
        WorkItem(f"w{i}", (Critical("L", phase(f"m{i}",
                                               (write_of("m", 3, 3),))),))
        for i in range(3)]
    items.append(WorkItem("w3", (Compute(phase("m3",
                                               (write_of("m", 3, 3),))),)))
    report = analyze_job(Job("dropped", (WorkQueueRegion(tuple(items),
                                                         3),)))
    assert {f.hazard for f in report.findings} == {"lock-discipline"}


def test_different_locks_are_lock_discipline():
    threads = (
        ThreadProgram("t0", (Critical("L1", phase("a",
                                                  (write_of("m"),))),)),
        ThreadProgram("t1", (Critical("L2", phase("b",
                                                  (write_of("m"),))),)),
    )
    job = Job("wrong-lock", (ParallelRegion(threads),))
    report = analyze_job(job)
    assert {f.hazard for f in report.findings} == {"lock-discipline"}


def test_same_unit_never_races_with_itself():
    threads = (ThreadProgram("t0", (
        Compute(phase("a", (write_of("x", 0, 9),))),
        Compute(phase("b", (write_of("x", 0, 9),))),
    )),)
    assert analyze_job(Job("selfj", (ParallelRegion(threads),))).clean


# ----------------------------------------------------------------------
# dependence-fact suppression
# ----------------------------------------------------------------------

def chunked_like_job(name):
    """Program-2-shaped job: opaque writes to intervals/num_intervals."""
    return parallel_job(name, [
        (read_of("threats", i * 10, i * 10 + 9), write_of("intervals"),
         write_of("num_intervals"))
        for i in range(4)])


def test_facts_suppress_opaque_conflicts_for_chunked_family():
    report = analyze_job(chunked_like_job("threat-chunked-4x"))
    assert report.clean
    assert report.suppressed == 12  # C(4,2) pairs x 2 arrays


def test_no_facts_without_matching_program_family():
    report = analyze_job(chunked_like_job("unrelated-job"))
    assert not report.clean
    assert report.suppressed == 0
    assert {f.location for f in report.findings} == {
        "intervals[*]", "num_intervals[*]"}


def test_facts_do_not_suppress_explicit_overlaps():
    """A bounded, provably overlapping range is always flagged even on
    an array the compiler proved iteration-independent."""
    job = parallel_job("threat-chunked-4x", [
        (write_of("intervals", i * 10, i * 10 + 10),)
        for i in range(4)])
    report = analyze_job(job)
    assert {f.hazard for f in report.findings} == {"data-race"}
