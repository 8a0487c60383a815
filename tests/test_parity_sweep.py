"""Registry-wide engine-parity sweep.

Every simulation cell the registry runs is swept at smoke scale: each
cell an experiment's run performs (its own machine spec, slices per
phase, fine-grained flag and seed universe; see
:func:`repro.harness.parallel.experiment_cells`) runs under pure DES
and under a fast engine, and the pair must satisfy the parity contract
in ``tests/parity.py``.  Nothing is excluded.  This is the contract
the chaos CI gate relies on -- the fault injector splits jobs and
re-runs segments under whichever engine is active, so any job the
registry can emit must agree across engines.

The sweep covers both fast engines: ``closed`` (the default dispatch,
closed-form layers on) and ``stepped`` (every thread event-stepped
individually), so both sides of the cohort engine's internal dispatch
decision stay covered by the same contract.

Cells shared between experiments run once per engine, memoized by
their cache key.  Pure DES never depends on the fast engine, so each
cell's DES side runs once and is compared with both fast engines.
"""

import pytest

from repro.harness import EXPERIMENT_IDS, BenchmarkData
from repro.harness.parallel import experiment_cells

from tests.parity import (
    assert_equivalent,
    run_both_cmt,
    run_both_conventional,
    run_both_mta,
)

pytestmark = pytest.mark.slow

SCALES = dict(threat_scale=0.01, terrain_scale=0.03)

#: the fast engines; the test ids keep the "1"/"0" of the closed-form
#: on/off switch this pair replaced
FAST_ENGINES = ("closed", "stepped")
FAST_IDS = ("1", "0")

_runs = {}


@pytest.fixture(scope="module")
def data():
    return BenchmarkData(**SCALES)


@pytest.fixture(params=FAST_ENGINES, ids=FAST_IDS)
def engine(request):
    return request.param


def _run(cell, engine):
    key = (engine, cell.key)
    if key not in _runs:
        _runs[key] = cell.run(engine)
    return _runs[key]


@pytest.mark.parametrize("eid", sorted(EXPERIMENT_IDS))
def test_experiment_parity_under_both_engines(eid, data, engine):
    for cell in experiment_cells(eid, data):
        des, fast = _run(cell, "des"), _run(cell, engine)
        where = (f"{eid}/{cell.job_id}@{cell.seed_offset} on "
                 f"{cell.spec.name} [engine={engine}]")
        if engine == "stepped":     # the setting really reached it
            assert fast.stats["closed_form_regions"] == 0, where
            assert fast.stats["cohort_drained_grants"] == 0, where
        try:
            assert_equivalent(des, fast)
        except AssertionError as exc:
            raise AssertionError(f"{where}: {exc}") from exc


def test_tied_lock_classes_match_des():
    """The 5000-thread sync-variable Threat job on the 2-processor MTA:
    its two per-processor classes reach the lock in one event, and
    the queue must interleave their members as DES does."""
    job = BenchmarkData(threat_scale=0.002).threat_finegrained_all_job()
    des, closed = run_both_mta(job, n_proc=2, engine="closed")
    assert_equivalent(des, closed)
    assert closed.stats["cohort_drained_grants"] > 0


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
