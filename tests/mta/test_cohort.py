"""Cohort fast path vs pure DES on the MTA machine model.

Exercises the MTA-specific compilation: ``AllOf(issue, network)``
pairs become PAR segments, threads are pinned round-robin to per-
processor issue servers, and full/empty synchronization costs ride on
the acquiring stream's processor.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload import (
    JobBuilder,
    OpCounts,
    ThreadProgramBuilder,
    make_phase,
)

from tests.parity import REL_TOL, assert_equivalent, rel_err
from tests.parity import run_both_mta as run_both


@st.composite
def mta_jobs(draw):
    n_threads = draw(st.integers(min_value=1, max_value=12))
    n_items = draw(st.integers(min_value=1, max_value=3))
    with_lock = draw(st.booleans())
    kind = draw(st.sampled_from(["os", "sw", "hw"]))
    threads = []
    for i in range(n_threads):
        b = ThreadProgramBuilder(f"t{i}")
        for k in range(n_items):
            ops = OpCounts(
                falu=draw(st.floats(min_value=1e3, max_value=2e6)),
                load=draw(st.floats(min_value=0.0, max_value=8e5)),
                store=draw(st.floats(min_value=0.0, max_value=2e5)),
            )
            b.compute(f"c{k}", ops)
            if with_lock:
                b.critical("acc", f"crit{k}",
                           OpCounts(store=draw(st.floats(min_value=8,
                                                         max_value=2e3)),
                                    sync=2.0))
        threads.append(b.build())
    return (JobBuilder("prop")
            .serial("setup", OpCounts(ialu=2e4))
            .parallel(threads, thread_kind=kind)
            .build())


@pytest.mark.slow
@settings(max_examples=25, deadline=None)
@given(mta_jobs(), st.integers(min_value=1, max_value=4))
def test_property_cohort_matches_des(job, n_proc):
    des, coh = run_both(job, n_proc=n_proc)
    assert_equivalent(des, coh)
    assert coh.stats["cohort_regions"] == 1.0
    assert coh.stats["des_regions"] == 0.0


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=10))
def test_property_work_queue_matches_des(n_threads, n_items):
    items = [
        ThreadProgramBuilder(f"item{i}")
        .compute("c", OpCounts(falu=1e5 * (i + 1), load=3e4))
        .build_work_item()
        for i in range(n_items)
    ]
    job = JobBuilder("wq").work_queue(items, n_threads).build()
    des, coh = run_both(job)
    assert_equivalent(des, coh)
    assert coh.stats["cohort_regions"] == 1.0


def test_fine_grained_phase_in_region_routes_to_des():
    # parallelism > 1 inside a region spreads issue demand across all
    # processors; the cohort compiler leaves that to the DES path
    phase = make_phase("fg", OpCounts(falu=4e6), parallelism=16.0)
    th = [ThreadProgramBuilder(f"t{i}").phase(phase).build()
          for i in range(4)]
    job = JobBuilder("fg").parallel(th).build()
    des, coh = run_both(job)
    assert coh.seconds == des.seconds
    assert coh.stats["des_regions"] == 1.0
    assert coh.stats["cohort_regions"] == 0.0


def test_fine_grained_serial_phase_uses_closed_form():
    # serial fine-grained phases (the wavefront inner loops) stay on
    # the closed form, which must match DES bit for bit
    job = (JobBuilder("serial-fg")
           .serial("ring", OpCounts(falu=3e6, load=1e6), parallelism=64.0)
           .serial("fixup", OpCounts(ialu=2e4))
           .build())
    des, coh = run_both(job, n_proc=4)
    assert coh.seconds == des.seconds
    assert coh.stats["cohort_serial_steps"] == 2.0


def test_unbalanced_threads_across_processors():
    # 5 threads on 2 processors: uneven pinning (3 + 2) exercises the
    # per-processor issue servers disagreeing on membership counts
    threads = [
        ThreadProgramBuilder(f"t{i}")
        .compute("c", OpCounts(falu=1e6 + 2e5 * i, load=2e5))
        .build()
        for i in range(5)
    ]
    job = JobBuilder("odd").parallel(threads).build()
    des, coh = run_both(job, n_proc=2)
    assert_equivalent(des, coh)


def test_wide_regions_match_des(monkeypatch):
    # the paper's 1024-chunk Threat Analysis on the 16-processor MTA:
    # the registry's widest regions, up to 147 entities per batch
    # server at this scale after class compression.  No other tier-1
    # job puts more than 96 on one server.
    import repro.machines.driver as driver
    from repro.des.batch import CohortEngine
    from repro.harness import BenchmarkData

    widths = []

    class RecordingEngine(CohortEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            widths.append(self.stats["classes"])

    monkeypatch.setattr(driver, "CohortEngine", RecordingEngine)
    job = BenchmarkData(threat_scale=0.01).threat_chunked_job(1024)
    des, coh = run_both(job, n_proc=16)
    assert_equivalent(des, coh)
    assert rel_err(coh.network_utilization,
                   des.network_utilization) <= REL_TOL
    assert coh.stats["cohort_regions"] == len(widths) > 0
    assert coh.stats["des_regions"] == 0.0
    assert max(widths) > 96
