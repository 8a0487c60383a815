"""Tests for the workload extractors (instrumented runs -> jobs)."""

import pytest

from repro.c3i import terrain as TE
from repro.c3i import threat as TH
from repro.c3i.threat.workload import full_scale_stats
from repro.c3i.threat.scenarios import FULL_SCALE as TH_FULL
from repro.workload.task import (
    ParallelRegion,
    SerialStep,
    WorkQueueRegion,
)


@pytest.fixture(scope="module")
def threat_data():
    scs = TH.benchmark_scenarios(scale=0.02)
    seq = [TH.run_sequential(s) for s in scs]
    return scs, seq


@pytest.fixture(scope="module")
def terrain_data():
    scs = TE.benchmark_scenarios(scale=0.04)
    seq = [TE.run_sequential(s) for s in scs]
    return scs, seq


# ----------------------------------------------------------------------
# Threat Analysis workloads
# ----------------------------------------------------------------------

def test_full_scale_stats_tiling(threat_data):
    scs, seq = threat_data
    stats = full_scale_stats(scs[0], seq[0])
    assert stats.n_threats == TH_FULL.n_threats
    m = scs[0].n_threats
    dt = TH_FULL.n_steps / scs[0].n_steps
    # tiling: threat i mirrors measured threat i % m, scaled by dt
    assert stats.steps[m + 3] == pytest.approx(
        seq[0].steps_per_threat[3] * dt)
    assert stats.intervals_total == pytest.approx(
        sum(seq[0].intervals_per_threat[i % m]
            for i in range(TH_FULL.n_threats)))


def test_sequential_job_is_all_serial(threat_data):
    scs, seq = threat_data
    job = TH.sequential_benchmark_job(scs, seq)
    assert all(isinstance(s, SerialStep) for s in job.steps)
    assert len(job.steps) == 2 * len(scs)  # setup + scan per scenario
    assert job.total_ops.total > 1e10      # paper-scale work


def test_chunked_job_structure(threat_data):
    scs, seq = threat_data
    job = TH.chunked_benchmark_job(scs, seq, 64, thread_kind="hw")
    regions = [s for s in job.steps if isinstance(s, ParallelRegion)]
    assert len(regions) == len(scs)
    for region in regions:
        assert region.n_threads == 64
        assert region.thread_kind == "hw"
        # every chunk is non-empty at full scale (1000 threats / 64)
        assert all(t.total_ops.total > 0 for t in region.threads)


def test_chunked_job_conserves_scan_work(threat_data):
    """Total scan ops are identical for any chunk count."""
    scs, seq = threat_data
    totals = []
    for chunks in (1, 16, 256):
        job = TH.chunked_benchmark_job(scs, seq, chunks)
        totals.append(job.total_ops.total)
    assert totals[0] == pytest.approx(totals[1], rel=1e-9)
    assert totals[0] == pytest.approx(totals[2], rel=1e-9)


def test_chunked_equals_sequential_scan_work(threat_data):
    scs, seq = threat_data
    seq_job = TH.sequential_benchmark_job(scs, seq)
    ch_job = TH.chunked_benchmark_job(scs, seq, 8)
    assert ch_job.total_ops.total == pytest.approx(
        seq_job.total_ops.total, rel=1e-9)


def test_chunked_invalid(threat_data):
    scs, seq = threat_data
    with pytest.raises(ValueError):
        TH.chunked_benchmark_job(scs, seq, 0)


def test_threat_memory_footprint_fits_smp_caches(threat_data):
    """The paper: threads 'execute mostly within cache'."""
    scs, seq = threat_data
    job = TH.chunked_benchmark_job(scs, seq, 16)
    from repro.machines import EXEMPLAR_16
    for step in job.steps:
        if isinstance(step, ParallelRegion):
            for t in step.threads:
                for item in t.items:
                    assert (item.phase.memory.unique_bytes
                            < EXEMPLAR_16.cache.capacity_bytes)


def test_finegrained_job_has_sync_criticals(threat_data):
    scs, seq = threat_data
    job = TH.finegrained_benchmark_job(scs, seq, max_threads=50)
    regions = [s for s in job.steps if isinstance(s, ParallelRegion)]
    assert regions
    from repro.workload.task import Critical
    crits = [it for r in regions for t in r.threads for it in t.items
             if isinstance(it, Critical)]
    assert crits
    assert all(c.lock == "num_intervals" for c in crits)
    assert sum(c.phase.ops.sync for c in crits) > 0


# ----------------------------------------------------------------------
# Terrain Masking workloads
# ----------------------------------------------------------------------

def test_terrain_sequential_job_memory_bound(terrain_data):
    scs, seq = terrain_data
    job = TE.sequential_benchmark_job(scs, seq)
    total = job.total_ops
    # more than one op in four references memory: the memory-bound
    # character behind Tables 8-11
    assert total.mem_fraction > 0.25


def test_terrain_sequential_job_footprint_exceeds_caches(terrain_data):
    scs, seq = terrain_data
    job = TE.sequential_benchmark_job(scs, seq)
    from repro.machines import ALPHASTATION_500
    propagate = [s.phase for s in job.steps
                 if isinstance(s, SerialStep)
                 and "propagate" in s.phase.name]
    assert propagate
    for p in propagate:
        assert (p.memory.unique_bytes
                > ALPHASTATION_500.cache.capacity_bytes * 0.5)


def test_terrain_blocked_job_structure(terrain_data):
    scs, _seq = terrain_data
    blocked = [TE.run_blocked(s, n_threads=4) for s in scs]
    job = TE.blocked_benchmark_job(scs, blocked, n_threads=4)
    queues = [s for s in job.steps if isinstance(s, WorkQueueRegion)]
    assert len(queues) == len(scs)
    for q, sc in zip(queues, scs):
        assert q.n_threads == 4
        assert len(q.items) == sc.n_threats
    from repro.workload.task import Critical
    # every item ends with lock-protected merges
    item = queues[0].items[0]
    locks = [it.lock for it in item.items if isinstance(it, Critical)]
    assert locks
    assert all("block" in lk for lk in locks)


def test_run_blocked_is_independent_of_thread_count(terrain_data):
    """Program 4 walks its threat queue in order whatever the worker
    count, so one kernel run serves every count."""
    scs, _seq = terrain_data
    for sc in scs:
        ref, *others = [TE.run_blocked(sc, n_threads=n)
                        for n in (1, 4, 16)]
        for res in others:
            assert res.masking.tobytes() == ref.masking.tobytes()
            assert res.per_threat_blocks == ref.per_threat_blocks
            assert res.n_lock_acquisitions == ref.n_lock_acquisitions
            assert res.n_rings_total == ref.n_rings_total
            assert res.ring_cells_total == ref.ring_cells_total


def test_rethread_blocked_job_equals_fresh_build(terrain_data):
    scs, _seq = terrain_data
    blocked = [TE.run_blocked(s) for s in scs]
    base = TE.blocked_benchmark_job(scs, blocked, n_threads=1)
    for n, kind in ((1, "os"), (4, "os"), (16, "sw")):
        job = TE.rethread_blocked_job(base, n, kind)
        assert job == TE.blocked_benchmark_job(scs, blocked, n, kind)
        assert job.name == f"terrain-blocked-{n}t"
        # every step but the queue regions, and every queue's items,
        # are the base job's own objects
        for step, base_step in zip(job.steps, base.steps):
            if isinstance(step, WorkQueueRegion):
                assert (step.n_threads, step.thread_kind) == (n, kind)
                assert step.items is base_step.items
            else:
                assert step is base_step


def test_terrain_blocked_reset_cheaper_than_seq_copy(terrain_data):
    """The temp/masking role swap: the blocked variant's private reset
    pass touches less memory than the sequential copy pass."""
    scs, seq = terrain_data
    blocked = [TE.run_blocked(s, n_threads=1) for s in scs]
    seq_job = TE.sequential_benchmark_job(scs, seq)
    bl_job = TE.blocked_benchmark_job(scs, blocked, n_threads=1)
    # compare only non-propagate mem ops (copy+merge vs reset+merge)
    def aux_mem(job):
        total = 0.0
        for step in job.steps:
            phases = []
            if isinstance(step, SerialStep):
                phases = [step.phase]
            elif isinstance(step, WorkQueueRegion):
                phases = [it.phase for item in step.items
                          for it in item.items]
            for p in phases:
                if "propagate" not in p.name:
                    total += p.ops.mem_ops
        return total
    assert aux_mem(bl_job) < aux_mem(seq_job)


def test_terrain_finegrained_job_wide_phases(terrain_data):
    scs, _seq = terrain_data
    fine = [TE.run_finegrained(s) for s in scs]
    job = TE.finegrained_benchmark_job(scs, fine)
    wide = [s.phase for s in job.steps if isinstance(s, SerialStep)
            and s.phase.parallelism > 1]
    assert wide
    propagate = [p for p in wide if "propagate" in p.name]
    # inner-loop parallelism is tens-to-hundreds of strands
    assert all(10 <= p.parallelism <= 5000 for p in propagate)
    # the ring wavefront leaves an unhidable critical path
    assert all(p.serial_cycles > 0 for p in propagate)


def test_terrain_jobs_conserve_propagation_work(terrain_data):
    scs, seq = terrain_data
    fine = [TE.run_finegrained(s) for s in scs]
    blocked = [TE.run_blocked(s, n_threads=8) for s in scs]

    def propagate_ops(job):
        total = 0.0
        for step in job.steps:
            phases = []
            if isinstance(step, SerialStep):
                phases = [step.phase]
            elif isinstance(step, WorkQueueRegion):
                phases = [it.phase for item in step.items
                          for it in item.items]
            for p in phases:
                if "propagate" in p.name:
                    total += p.ops.total
        return total

    a = propagate_ops(TE.sequential_benchmark_job(scs, seq))
    b = propagate_ops(TE.blocked_benchmark_job(scs, blocked, n_threads=8))
    c = propagate_ops(TE.finegrained_benchmark_job(scs, fine))
    assert a == pytest.approx(b, rel=1e-9)
    assert a == pytest.approx(c, rel=1e-9)
