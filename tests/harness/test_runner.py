"""Tests for BenchmarkData caching and helpers."""

import gc
import weakref

import pytest

import repro.c3i.terrain.workload as te_workload
from repro.c3i.terrain import model as terrain_model
from repro.c3i import terrain as TE
from repro.c3i import threat as TH
from repro.harness import BenchmarkData, store
from repro.harness.parallel import run_experiments
from repro.harness.runner import SIBLINGS_MAX
from repro.machines import exemplar
from repro.workload.task import WorkQueueRegion


@pytest.fixture(scope="module")
def data():
    return BenchmarkData(threat_scale=0.01, terrain_scale=0.025)


def test_scenarios_are_memoized(data):
    assert data.threat_scenarios is data.threat_scenarios
    assert data.terrain_scenarios is data.terrain_scenarios
    assert data.threat_sequential is data.threat_sequential


def test_jobs_are_memoized(data):
    assert data.threat_chunked_job(16) is data.threat_chunked_job(16)
    assert data.threat_chunked_job(16) is not data.threat_chunked_job(32)
    assert (data.threat_chunked_job(16, thread_kind="hw")
            is not data.threat_chunked_job(16, thread_kind="os"))


def test_runs_are_memoized(data):
    job = data.threat_sequential_job()
    a = data.exemplar(1, job)
    b = data.exemplar(1, job)
    assert a == b
    assert data.run_conventional(exemplar(1), job) == a


def test_run_shorthands_agree(data):
    job = data.threat_sequential_job()
    assert data.exemplar(4, job) == data.run_conventional(exemplar(4),
                                                          job)


def test_mta_runs_distinct_by_processors(data):
    job = data.threat_chunked_job(64, thread_kind="hw")
    t1 = data.run_mta(1, job)
    t2 = data.run_mta(2, job)
    assert t1 != t2


def test_seed_offset_produces_different_data():
    a = BenchmarkData(threat_scale=0.01, seed_offset=0)
    b = BenchmarkData(threat_scale=0.01, seed_offset=1)
    assert a.threat_scenarios[0].threats != b.threat_scenarios[0].threats


#: ``store.fingerprint`` of ``terrain_blocked_job(n, kind)`` at the
#: module scales, as built when every thread count ran its own kernel
#: and built its own work items; sharing both must not move a byte
BLOCKED_JOB_FINGERPRINTS = {
    (1, "os"): "46375b7b2535b0d1511b1d97529c0c31"
               "5814571881a0b9d0be38823a5a97a367",
    (1, "sw"): "985f2798d5fa6e1fdd322a6d048efdc7"
               "1d7a0351d27b3f6ef4003ac4bfa10611",
    (4, "os"): "db284f59ca4e9629d9e7cd4a17219e04"
               "5113f2eb7df3bc9d16ab846788b46361",
    (4, "sw"): "27cf6348ef3e481671ea95559291b9bf"
               "7f8630303c6b62a02933e1510ce1efd9",
    (16, "os"): "ee2788f4be56dbafd536b3042808ac61"
                "974dee021a77932b1972698d65c159d8",
    (16, "sw"): "ddbf73ba8ef908ded3159acae5bae076"
                "3322d3fe40733277f8eed4658cc7fad6",
}


@pytest.mark.parametrize("n,kind", sorted(BLOCKED_JOB_FINGERPRINTS))
def test_blocked_job_fingerprint_golden(data, n, kind):
    job = data.terrain_blocked_job(n, kind)
    assert job.name == f"terrain-blocked-{n}t"
    assert store.fingerprint(job) == BLOCKED_JOB_FINGERPRINTS[n, kind]


def test_blocked_jobs_share_one_build(data):
    """Thread counts and kinds differ only in the queue regions: the
    kernel runs once and every job shares its work-item tuples."""
    a = data.terrain_blocked_job(4)
    b = data.terrain_blocked_job(16, "sw")
    assert a is data.terrain_blocked_job(4, "os")
    assert a is not b
    qa = [s for s in a.steps if isinstance(s, WorkQueueRegion)]
    qb = [s for s in b.steps if isinstance(s, WorkQueueRegion)]
    assert len(qa) == len(qb) == len(data.terrain_scenarios)
    for x, y in zip(qa, qb):
        assert x.items is y.items


def test_threat_finegrained_all_recipe(data):
    """Section 5's one-thread-per-threat job is a named recipe that
    rebuilds to the inline build's structure."""
    job = data.job_from_recipe("th-job-fg-all")
    assert job is data.threat_finegrained_all_job()
    inline = TH.finegrained_benchmark_job(
        data.threat_scenarios, data.threat_sequential, max_threads=None)
    assert store.fingerprint(job) == store.fingerprint(inline)
    assert data._job_fingerprint(job) == "recipe:th-job-fg-all"
    # the recipe really is the uncoalesced job
    assert store.fingerprint(job) != store.fingerprint(
        data.threat_finegrained_job())


def test_blocked_kernels_and_items_built_once_per_universe(monkeypatch):
    """Duplication tripwire: Tables 9 and 10 sweep Program 4 over 1-4
    and 1-16 workers, yet its kernel and its work items run once per
    scenario per input universe."""
    calls = {"kernel": 0, "items": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setattr(TE, "run_blocked", counted("kernel", TE.run_blocked))
    monkeypatch.setattr(te_workload, "blocked_work_items",
                        counted("items", te_workload.blocked_work_items))
    scales = dict(threat_scale=0.01, terrain_scale=0.02)
    data = BenchmarkData(**scales)
    run_experiments(["table9", "table10"], jobs=1, data=data, **scales)
    n_scenarios = len(data.terrain_scenarios)
    assert calls == {"kernel": n_scenarios, "items": n_scenarios}
    # a second universe pays its own kernel and items, once
    sibling = data.with_seed_offset(3)
    for n in range(1, 17):
        sibling.terrain_blocked_job(n, "sw")
    assert calls == {"kernel": 2 * n_scenarios, "items": 2 * n_scenarios}


def test_siblings_are_kept_least_recently_used():
    data = BenchmarkData(threat_scale=0.01, terrain_scale=0.02)
    assert data.with_seed_offset(0) is data
    first = data.with_seed_offset(1)
    for k in range(2, SIBLINGS_MAX + 1):
        data.with_seed_offset(k)
    assert data.with_seed_offset(1) is first  # a hit refreshes it
    data.with_seed_offset(SIBLINGS_MAX + 1)  # evicts offset 2, not 1
    assert len(data._siblings) == SIBLINGS_MAX
    assert 1 in data._siblings and 2 not in data._siblings
    assert data.with_seed_offset(1) is first


def test_evicted_sibling_releases_its_terrain_and_masks():
    # an offset no other test uses, so nothing else holds its scenarios
    data = BenchmarkData(threat_scale=0.01, terrain_scale=0.02)
    sib = data.with_seed_offset(907)
    sib.terrain_sequential  # fills the per-terrain masking memo
    grids = [weakref.ref(sc.terrain) for sc in sib.terrain_scenarios]
    ids = {id(sc.terrain) for sc in sib.terrain_scenarios}
    assert ids <= set(terrain_model._MASK_MEMO)
    del sib
    for k in range(908, 908 + SIBLINGS_MAX):
        data.with_seed_offset(k)
    assert 907 not in data._siblings
    gc.collect()
    assert all(g() is None for g in grids)
    assert not ids & set(terrain_model._MASK_MEMO)
