"""Registry-wide engine-parity sweep.

Every experiment the registry can produce is swept at smoke scale:
each of its jobs runs under pure DES and under the cohort fast path on
both machine families, and the pair must satisfy the parity contract
in ``tests/parity.py``.  This is the contract the chaos CI gate relies
on -- the fault injector splits jobs and re-runs segments under
whichever engine is active, so any job the registry can emit must
agree across engines.

The sweep covers both fast engines: ``closed`` (the default dispatch,
closed-form layers on) and ``stepped`` (every thread event-stepped
individually), so both sides of the cohort engine's internal dispatch
decision stay covered by the same contract.

Jobs shared between experiments (the registry collapses identical
builders) run once per engine, memoized by job name.  Pure DES never
depends on the fast engine, so each job's DES side runs once and is
compared with both fast engines.
"""

import pytest

from repro.analysis.targets import experiment_jobs
from repro.harness import EXPERIMENT_IDS, BenchmarkData

from tests.parity import (
    assert_equivalent,
    run_both_cmt,
    run_both_conventional,
    run_both_mta,
    run_conventional,
    run_mta,
)

pytestmark = pytest.mark.slow

SCALES = dict(threat_scale=0.01, terrain_scale=0.03)

#: the fast engines; the test ids keep the "1"/"0" of the closed-form
#: on/off switch this pair replaced
FAST_ENGINES = ("closed", "stepped")
FAST_IDS = ("1", "0")

_des_cache = {}
_fast_cache = {}


@pytest.fixture(scope="module")
def data():
    return BenchmarkData(**SCALES)


@pytest.fixture(params=FAST_ENGINES, ids=FAST_IDS)
def engine(request):
    return request.param


def _runs(job, engine):
    """The job's MTA and Exemplar runs on ``engine``."""
    return run_mta(job, engine), run_conventional(job, engine)


def _pairs(job, engine):
    """(DES, fast) pairs on the MTA and the Exemplar."""
    if job.name not in _des_cache:
        _des_cache[job.name] = _runs(job, "des")
    key = (engine, job.name)
    if key not in _fast_cache:
        _fast_cache[key] = _runs(job, engine)
    return zip(_des_cache[job.name], _fast_cache[key])


@pytest.mark.parametrize("eid", sorted(EXPERIMENT_IDS))
def test_experiment_parity_under_both_engines(eid, data, engine):
    jobs = experiment_jobs(eid, data)
    for name, job in jobs.items():
        for des, fast in _pairs(job, engine):
            if engine == "stepped":     # the setting really reached it
                assert fast.stats["closed_form_regions"] == 0, name
                assert fast.stats["cohort_drained_grants"] == 0, name
            try:
                assert_equivalent(des, fast)
            except AssertionError as exc:
                raise AssertionError(
                    f"{eid}/{name} [engine={engine}]: {exc}") from exc


# ----------------------------------------------------------------------
# taskbench topologies x all three machine families
# ----------------------------------------------------------------------

#: one recipe per topology, widths/depths chosen so every topology's
#: structural cases (halo clipping, fan-in joins, widening trees,
#: wrap-around meshes) are exercised, plus a non-default grain/seed
TASKBENCH_RECIPES = (
    "tb-stencil-w8-d4-g1-s0-hw",
    "tb-fanout-w8-d4-g1-s0-hw",
    "tb-tree-w16-d5-g1-s0-hw",
    "tb-mesh-w8-d3-g2-s1-hw",
)


@pytest.mark.parametrize("recipe", TASKBENCH_RECIPES)
def test_taskbench_parity_on_all_families(recipe, engine):
    """Every topology is *byte-identical* across engines on the MTA,
    the Exemplar SMP and the T3-4 CMT -- exact equality, stricter than
    the registry contract's REL_TOL."""
    from repro.taskbench import job_from_recipe

    job = job_from_recipe(recipe)
    for family, (des, coh) in (
            ("mta", run_both_mta(job, engine=engine)),
            ("exemplar", run_both_conventional(job, engine=engine)),
            ("cmt", run_both_cmt(job, engine=engine))):
        assert coh.seconds == des.seconds, \
            (recipe, family, engine, des.seconds, coh.seconds)
        assert_equivalent(des, coh)


@pytest.mark.parametrize("recipe", TASKBENCH_RECIPES)
def test_taskbench_parity_under_no_cohort_hatch(recipe, monkeypatch):
    """With REPRO_ENGINE=des, default-constructed machines dispatch to
    pure DES -- and still produce the exact cohort-path numbers."""
    from repro.machines import ConventionalMachine, cmt, exemplar
    from repro.mta import MtaMachine, mta
    from repro.taskbench import job_from_recipe
    from repro.workload.cohort import ENGINE_ENV

    job = job_from_recipe(recipe)
    cohort = [m.run(job).seconds
              for m in (MtaMachine(mta(2), engine="closed"),
                        ConventionalMachine(exemplar(4), engine="closed"),
                        ConventionalMachine(cmt(64), engine="closed"))]
    monkeypatch.setenv(ENGINE_ENV, "des")
    hatched = [MtaMachine(mta(2)).run(job),
               ConventionalMachine(exemplar(4)).run(job),
               ConventionalMachine(cmt(64)).run(job)]
    for coh_seconds, des in zip(cohort, hatched):
        assert des.stats.get("cohort_regions", 0) == 0  # hatch honored
        assert des.seconds == coh_seconds
