"""Cohort fast path vs pure DES on the conventional machine model.

The acceptance bar from the vectorized-cohort work: for any job the
registry can produce, simulated seconds on the cohort path agree with
the pure-DES path to within 1e-9 relative, and regions the cohort
compiler cannot replay exactly are routed back to DES.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machines import ConventionalMachine, exemplar
from repro.workload import (
    JobBuilder,
    OpCounts,
    ThreadProgramBuilder,
    make_phase,
)
from repro.workload.cohort import ENGINE_ENV

from tests.parity import REL_TOL, assert_equivalent, rel_err
from tests.parity import run_both_conventional as run_both
from tests.parity import run_both_mta


# ----------------------------------------------------------------------
# randomized homogeneous regions
# ----------------------------------------------------------------------

@st.composite
def homogeneous_jobs(draw):
    """A job with one homogeneous region: same shape, random magnitudes.

    Cohort threads may be arbitrarily imbalanced -- only their item
    *shape* must match -- so per-thread op counts are drawn freely.
    """
    n_threads = draw(st.integers(min_value=1, max_value=10))
    n_items = draw(st.integers(min_value=1, max_value=3))
    with_lock = draw(st.booleans())
    shared_bytes = draw(st.sampled_from([0.0, 2e5]))
    threads = []
    for i in range(n_threads):
        b = ThreadProgramBuilder(f"t{i}")
        for k in range(n_items):
            ops = OpCounts(
                ialu=draw(st.floats(min_value=1e3, max_value=2e6)),
                load=draw(st.floats(min_value=0.0, max_value=5e5)),
            )
            b.compute(f"c{k}", ops, unique_bytes=shared_bytes)
            if with_lock:
                b.critical("lock-0", f"crit{k}",
                           OpCounts(store=draw(st.floats(min_value=10,
                                                         max_value=1e4)),
                                    sync=2.0))
        threads.append(b.build())
    job = (JobBuilder("prop")
           .serial("setup", OpCounts(ialu=1e4))
           .parallel(threads)
           .build())
    return job


@pytest.mark.slow
@settings(max_examples=25, deadline=None)
@given(homogeneous_jobs(), st.integers(min_value=1, max_value=8))
def test_property_cohort_matches_des(job, n_cpus):
    des, coh = run_both(job, n_cpus=n_cpus)
    assert_equivalent(des, coh)
    assert coh.stats["cohort_regions"] == 1.0
    assert coh.stats["des_regions"] == 0.0
    assert des.stats["cohort_regions"] == 0.0
    assert des.stats["des_regions"] == 1.0


@pytest.mark.slow
@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=12),
       st.floats(min_value=1e4, max_value=5e6))
def test_property_work_queue_matches_des(n_threads, n_items, ops):
    items = []
    for i in range(n_items):
        items.append(
            ThreadProgramBuilder(f"item{i}")
            .compute("c", OpCounts(ialu=ops * (1 + 0.1 * i), load=ops / 4),
                     unique_bytes=1e5)
            .critical("tally", "crit", OpCounts(store=64.0, sync=2.0))
            .build_work_item())
    job = JobBuilder("wq").work_queue(items, n_threads).build()
    des, coh = run_both(job)
    assert_equivalent(des, coh)
    assert coh.stats["cohort_regions"] == 1.0


def test_contended_work_queue_matches_des():
    # the registry's blocked-terrain shape: one worker per CPU (the CPU
    # lane never saturates), more workers than the bus can feed at
    # their per-CPU ceiling, and a shared merge lock that really queues
    n_cpus = 8
    spec = exemplar(n_cpus)
    assert n_cpus * spec.per_cpu_mem_bandwidth \
        > spec.mem.bandwidth_bytes_per_s
    items = [
        ThreadProgramBuilder(f"item{i}")
        .compute("c", OpCounts(ialu=2e5 * (1 + i % 3), load=5e4),
                 unique_bytes=2e5)
        .critical("merge", "crit", OpCounts(store=2e3, sync=2.0),
                  unique_bytes=5e4)
        .build_work_item()
        for i in range(24)]
    job = JobBuilder("wq").work_queue(items, n_cpus).build()
    des, coh = run_both(job, n_cpus=n_cpus)
    assert_equivalent(des, coh)
    assert coh.stats["cohort_regions"] == 1.0
    assert coh.stats["closed_form_regions"] == 0.0
    assert coh.stats["cohort_engine_events"] > 0
    assert des.stats["des_regions"] == 1.0
    assert des.stats["lock_acquisitions"] > 0
    assert coh.stats["lock_acquisitions"] == des.stats["lock_acquisitions"]
    # lock queue-depth statistics: the convoy peak and every
    # depth-histogram bucket match the pure-DES run's
    assert des.stats["lock_convoy_max"] >= 2
    assert coh.stats["lock_convoy_max"] == des.stats["lock_convoy_max"]
    hist_d = {k: v for k, v in des.stats.items()
              if k.startswith("lock_convoy_hist_")}
    hist_c = {k: v for k, v in coh.stats.items()
              if k.startswith("lock_convoy_hist_")}
    assert hist_d and hist_c == hist_d


# ----------------------------------------------------------------------
# routing: what must stay on the DES path
# ----------------------------------------------------------------------

def test_heterogeneous_region_routes_to_des():
    a = (ThreadProgramBuilder("a")
         .compute("c", OpCounts(ialu=1e5)).build())
    b = (ThreadProgramBuilder("b")
         .compute("c", OpCounts(ialu=1e5))
         .critical("L", "crit", OpCounts(store=10.0)).build())
    job = JobBuilder("het").parallel([a, b]).build()
    des, coh = run_both(job)
    # identical timing either way: the cohort machine fell back to DES
    assert coh.seconds == des.seconds
    assert coh.stats["cohort_regions"] == 0.0
    assert coh.stats["des_regions"] == 1.0


def test_fine_grained_region_routes_to_des():
    phase = make_phase("fg", OpCounts(falu=2e6), parallelism=8.0)
    th = [ThreadProgramBuilder(f"t{i}").phase(phase).build()
          for i in range(4)]
    job = JobBuilder("fg").parallel(th).build()
    des, coh = run_both(job, fine_grained=True)
    assert coh.seconds == des.seconds
    assert coh.stats["des_regions"] == 1.0
    assert coh.stats["cohort_regions"] == 0.0


def test_serial_steps_use_closed_form():
    job = (JobBuilder("serial")
           .serial("a", OpCounts(ialu=1e6, load=2e5), unique_bytes=3e5)
           .serial("b", OpCounts(falu=5e5))
           .build())
    des, coh = run_both(job)
    assert rel_err(coh.seconds, des.seconds) <= REL_TOL
    assert coh.stats["cohort_serial_steps"] == 2.0
    assert des.stats["des_serial_steps"] == 2.0


# ----------------------------------------------------------------------
# serial steps: the compiled phase replayed alone vs DES
# ----------------------------------------------------------------------

_OP_FIELDS = ("ialu", "falu", "load", "store", "branch", "sync")


@st.composite
def serial_jobs(draw):
    """1-4 serial steps whose op mixes may zero any component, with or
    without cache traffic, critical-path cycles and internal
    parallelism (the sw-thread path on a conventional machine, the
    all-processor spread on the MTA)."""
    b = JobBuilder("serial-prop")
    for k in range(draw(st.integers(min_value=1, max_value=4))):
        ops = OpCounts(**{
            f: draw(st.one_of(st.just(0.0),
                              st.floats(min_value=1.0, max_value=5e6)))
            for f in _OP_FIELDS})
        b.serial(f"s{k}", ops,
                 unique_bytes=draw(st.one_of(
                     st.just(0.0), st.floats(min_value=1e3,
                                             max_value=1e7))),
                 parallelism=draw(st.sampled_from([1, 2, 7, 64, 300])),
                 serial_cycles=draw(st.one_of(
                     st.just(0.0), st.floats(min_value=1.0,
                                             max_value=1e5))))
    return b.build()


@settings(max_examples=40, deadline=None)
@given(serial_jobs(), st.sampled_from([1, 4, 16]))
def test_property_serial_steps_match_des_bit_for_bit(job, n_cpus):
    n_steps = float(len(job.steps))
    runs = [run_both(job, n_cpus=n_cpus, fine_grained=fg)
            for fg in (False, True)]
    runs += [run_both_mta(job, n_proc=n) for n in (1, 2, 4)]
    for des, fast in runs:
        assert fast.seconds == des.seconds
        assert fast.stats["cohort_serial_steps"] == n_steps
        # busy times are sums the two paths round differently
        for a, b in zip(utilizations(des), utilizations(fast)):
            assert rel_err(a, b) <= REL_TOL


def utilizations(result) -> tuple:
    if hasattr(result, "issue_utilization"):
        return result.issue_utilization, result.network_utilization
    return result.cpu_utilization, result.bus_utilization


# ----------------------------------------------------------------------
# the engine setting
# ----------------------------------------------------------------------

def convoy_job():
    """Eight identical threads appending under one lock: a convoy."""
    threads = [ThreadProgramBuilder(f"t{i}")
               .compute("scan", OpCounts(ialu=1e5, load=2e4))
               .critical("append", "out", OpCounts(store=1e3, sync=1.0))
               .build()
               for i in range(8)]
    return JobBuilder("convoy").parallel(threads).build()


#: id -> (environment, constructor keywords, the engine that must run;
#: None when construction must raise)
ENGINE_CASES = {
    "unset": ({}, {}, "closed"),
    "closed": ({ENGINE_ENV: "closed"}, {}, "closed"),
    "stepped": ({ENGINE_ENV: "stepped"}, {}, "stepped"),
    "des": ({ENGINE_ENV: "des"}, {}, "des"),
    "keyword-overrides-env": ({ENGINE_ENV: "des"}, {"engine": "stepped"},
                              "stepped"),
    # perfbench's DES oracle spells engine="des" this way
    "use-cohort-false": ({}, {"use_cohort": False}, "des"),
    "unknown-value": ({ENGINE_ENV: "fast"}, {}, None),
    "unknown-keyword": ({}, {"engine": "fast"}, None),
    "retired-no-cohort": ({"REPRO_NO_COHORT": "1"}, {}, None),
    "retired-force-closed-form": ({"REPRO_FORCE_CLOSED_FORM": "0"}, {},
                                  None),
}


@pytest.mark.parametrize("case", list(ENGINE_CASES))
def test_engine_setting(case, monkeypatch):
    env, kwargs, expect = ENGINE_CASES[case]
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if expect is None:
        with pytest.raises(ValueError, match=ENGINE_ENV):
            ConventionalMachine(exemplar(2), **kwargs)
        return
    machine = ConventionalMachine(exemplar(2), **kwargs)
    assert machine.engine == expect
    res = machine.run(convoy_job())
    stats = res.stats
    if expect == "des":
        assert stats["cohort_regions"] == 0
    elif expect == "stepped":
        assert stats["cohort_regions"] > 0
        assert stats["closed_form_regions"] == 0
        assert stats["cohort_drained_grants"] == 0
    else:
        assert stats["closed_form_regions"] \
            + stats["cohort_drained_grants"] > 0
    assert res == ConventionalMachine(exemplar(2),
                                      engine=expect).run(convoy_job())
