"""The ``-j`` scheduler: cell records return over the result pipe and
experiments replay in the scheduling process, so a parallel run is the
serial run's output on the caller's data, with or without a cache."""

import pytest

from repro.harness import store
from repro.harness.parallel import run_experiments
from repro.harness.runner import BenchmarkData
from repro.obs.trace import tracing

SCALES = dict(threat_scale=0.012, terrain_scale=0.03)
IDS = ["table2", "table3"]


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))


def _rendered(jobs: int, data: BenchmarkData) -> list[str]:
    results, _ = run_experiments(IDS, jobs=jobs, data=data, **SCALES)
    return [results[eid].render() for eid in IDS]


def test_parallel_run_honours_data_seed_offset(cache_dir):
    serial = _rendered(1, BenchmarkData(seed_offset=3, **SCALES))
    parallel = _rendered(2, BenchmarkData(seed_offset=3, **SCALES))
    assert parallel == serial
    # and the universe really differs from the default one
    assert serial != _rendered(1, BenchmarkData(**SCALES))


def test_parallel_run_without_cache_matches_serial(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert _rendered(2, BenchmarkData(**SCALES)) == \
        _rendered(1, BenchmarkData(**SCALES))


def test_traced_parallel_run_records_every_event(cache_dir):
    """Forked workers' recorders never report back, so a traced ``-j``
    run must stay in-process and trace what the serial run traces."""
    counts = []
    for jobs in (1, 2):
        with tracing() as tr:
            run_experiments(IDS, jobs=jobs,
                            data=BenchmarkData(**SCALES), **SCALES)
        counts.append(len(tr.records))
    assert counts[0] > 0
    assert counts[1] == counts[0]


def test_profile_charges_cells_to_first_planner(cache_dir):
    """Each computed cell's miss lands on the first experiment that
    planned it -- the experiment the serial run computes it in."""
    _, serial = run_experiments(
        IDS, jobs=1, data=BenchmarkData(**SCALES), **SCALES)
    store.active_cache().clear()
    _, parallel = run_experiments(
        IDS, jobs=2, data=BenchmarkData(**SCALES), **SCALES)
    assert [p.cache_misses for p in parallel] == \
        [p.cache_misses for p in serial]
    assert all(p.cache_misses > 0 for p in parallel)


def test_threat_alternative_plans_only_transportable_cells():
    """Its 5000-thread sync-variable job is a named recipe, so every
    cell it simulates can run in a pool worker."""
    from repro.harness.parallel import _cell, experiment_cells

    cells = [_cell(sim) for sim in experiment_cells(
        "threat-alternative", BenchmarkData(**SCALES))]
    assert cells and all(c is not None and c["job_recipe"] for c in cells)
    assert sum(c["job_recipe"] == "th-job-fg-all" for c in cells) == 3


def test_threat_alternative_parallel_matches_serial(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    rendered = []
    for jobs in (1, 2):
        results, _ = run_experiments(["threat-alternative"], jobs=jobs,
                                     data=BenchmarkData(**SCALES),
                                     **SCALES)
        rendered.append(results["threat-alternative"].render())
    assert rendered[1] == rendered[0]
