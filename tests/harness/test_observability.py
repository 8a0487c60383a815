"""Harness-side observability: epoch coverage, cache attribution,
per-experiment metrics aggregation.

The bugfix sweep behind these tests: (1) the model-epoch hash must
cover every file that changes simulation outcomes -- the cohort
compilers and batch engine included -- so stale cache entries cannot
survive a model edit; (2) cache hit/miss attribution must be
per-task-scope, not per-process-cumulative-delta, so interleaved runs
report honest numbers.
"""

import os
import threading

from repro.harness import store
from repro.harness.parallel import (
    metrics_rollup,
    metrics_to_dict,
    render_metrics,
    run_experiments,
)
from repro.harness.store import (
    CacheScope,
    ResultCache,
    _compute_epoch,
    _model_source_files,
)


# ----------------------------------------------------------------------
# model epoch: source coverage + sensitivity
# ----------------------------------------------------------------------

def repro_root():
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def test_epoch_covers_every_outcome_determining_module():
    files = {os.path.relpath(p, repro_root()).replace(os.sep, "/")
             for p in _model_source_files(repro_root())}
    # the cohort fast path lives outside des/simulator.py -- a previous
    # audit gap: these files change outcomes but were easy to miss
    for must_cover in ("des/batch.py", "des/simulator.py",
                      "des/resources.py", "des/sync.py",
                      "machines/cohort.py", "machines/driver.py",
                      "machines/machine.py",
                      "mta/cohort.py", "mta/machine.py",
                      "obs/metrics.py", "workload/cohort.py"):
        assert must_cover in files, must_cover


def test_patching_a_covered_file_changes_the_epoch(tmp_path):
    root = tmp_path / "repro"
    pkg = root / "des"
    pkg.mkdir(parents=True)
    target = pkg / "batch.py"
    target.write_text("WAIT_COST = 1.0\n")
    before = _compute_epoch(str(root), "v1")
    assert _compute_epoch(str(root), "v1") == before   # deterministic
    target.write_text("WAIT_COST = 2.0\n")
    assert _compute_epoch(str(root), "v1") != before
    # version participates too
    target.write_text("WAIT_COST = 1.0\n")
    assert _compute_epoch(str(root), "v2") != before


def test_adding_a_file_to_a_covered_package_changes_the_epoch(tmp_path):
    root = tmp_path / "repro"
    (root / "obs").mkdir(parents=True)
    (root / "obs" / "trace.py").write_text("x = 1\n")
    before = _compute_epoch(str(root), "")
    (root / "obs" / "extra.py").write_text("y = 2\n")
    assert _compute_epoch(str(root), "") != before


def test_nested_subpackage_module_changes_the_epoch(tmp_path):
    """Regression: the source walk only listdir'd each package's top
    level, so a model package growing a subpackage (``des/engines/``)
    would change outcomes without ever invalidating cached entries."""
    root = tmp_path / "repro"
    (root / "des").mkdir(parents=True)
    (root / "des" / "batch.py").write_text("x = 1\n")
    before = _compute_epoch(str(root), "")

    sub = root / "des" / "engines"
    sub.mkdir()
    (sub / "fast.py").write_text("y = 2\n")
    assert _compute_epoch(str(root), "") != before
    planted = str(sub / "fast.py")
    assert planted in set(_model_source_files(str(root)))

    # editing the nested module moves the epoch again
    mid = _compute_epoch(str(root), "")
    (sub / "fast.py").write_text("y = 3\n")
    after = _compute_epoch(str(root), "")
    assert after != mid

    # __pycache__ trees stay invisible
    pyc = root / "des" / "__pycache__"
    pyc.mkdir()
    (pyc / "batch.cpython-311.py").write_text("compiled\n")
    assert _compute_epoch(str(root), "") == after
    assert not any("__pycache__" in p
                   for p in _model_source_files(str(root)))


def test_nested_modules_with_shared_basenames_are_distinct(tmp_path):
    """Two trees whose files differ only in *path* must not collide:
    the epoch hashes package-relative paths, not basenames."""
    a = tmp_path / "a" / "repro"
    b = tmp_path / "b" / "repro"
    for root, pkg in ((a, "des"), (b, "des")):
        (root / pkg).mkdir(parents=True)
    (a / "des" / "util.py").write_text("same\n")
    (b / "des" / "deep").mkdir()
    (b / "des" / "deep" / "util.py").write_text("same\n")
    assert _compute_epoch(str(a), "") != _compute_epoch(str(b), "")


# ----------------------------------------------------------------------
# cache scopes: exact per-task hit/miss attribution
# ----------------------------------------------------------------------

def counting_cache(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put("present", {"seconds": 1.0})
    return cache


def test_cache_scope_counts_only_enclosed_lookups(tmp_path):
    cache = counting_cache(tmp_path)
    cache.get("present")                      # outside any scope
    with store.cache_scope() as sc:
        cache.get("present")
        cache.get("present")
        cache.get("absent")
    assert (sc.hits, sc.misses) == (2, 1)
    cache.get("absent")                       # after the scope closed
    assert (sc.hits, sc.misses) == (2, 1)


def test_cache_scopes_nest_innermost_wins(tmp_path):
    cache = counting_cache(tmp_path)
    with store.cache_scope() as outer:
        cache.get("present")
        with store.cache_scope() as inner:
            cache.get("absent")
        cache.get("present")
    assert (outer.hits, outer.misses) == (2, 0)
    assert (inner.hits, inner.misses) == (0, 1)


def test_cache_scopes_are_thread_isolated(tmp_path):
    """The regression this guards: process-cumulative counter deltas
    double-count when two tasks interleave in one process.  Scopes are
    contextvar-backed, so concurrent threads never bleed."""
    cache = counting_cache(tmp_path)
    results: dict[str, CacheScope] = {}
    gate = threading.Barrier(2)

    def task(tag: str, hits: int, misses: int):
        with store.cache_scope() as sc:
            gate.wait()                       # force full overlap
            for _ in range(hits):
                cache.get("present")
            for _ in range(misses):
                cache.get("absent")
            gate.wait()
        results[tag] = sc

    t1 = threading.Thread(target=task, args=("a", 3, 1))
    t2 = threading.Thread(target=task, args=("b", 1, 4))
    t1.start(); t2.start(); t1.join(); t2.join()
    assert (results["a"].hits, results["a"].misses) == (3, 1)
    assert (results["b"].hits, results["b"].misses) == (1, 4)


# ----------------------------------------------------------------------
# per-experiment metrics aggregation (repro all --metrics)
# ----------------------------------------------------------------------

def test_profiles_carry_per_run_metrics_serial(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    results, profiles = run_experiments(
        ["table2"], threat_scale=0.01, terrain_scale=0.03, jobs=1)
    assert results["table2"].all_checks_pass()
    (profile,) = profiles
    assert profile.cache_misses > 0 and profile.cache_hits == 0
    assert len(profile.metrics) == profile.cache_misses
    roll = metrics_rollup(profile)
    assert roll["sim_runs"] == len(profile.metrics)
    assert roll["simulated_seconds"] > 0
    for rec in profile.metrics:
        assert rec["kind"] in ("conventional", "mta")
        assert "serial_wall_seconds" in rec["stats"]
    # a second run is all cache hits but reports identical metrics
    results2, profiles2 = run_experiments(
        ["table2"], threat_scale=0.01, terrain_scale=0.03, jobs=1)
    assert metrics_rollup(profiles2[0]) == roll
    payload = metrics_to_dict(profiles)
    assert payload["schema"] == 1
    assert payload["experiments"][0]["experiment_id"] == "table2"
    table = render_metrics(profiles)
    assert "table2" in table and "sim-sec" in table


def test_profiles_carry_per_run_metrics_parallel(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    results, profiles = run_experiments(
        ["table2", "table5"], threat_scale=0.01, terrain_scale=0.03,
        jobs=2)
    assert [p.experiment_id for p in profiles] == ["table2", "table5"]
    for p in profiles:
        roll = metrics_rollup(p)
        assert roll["sim_runs"] > 0
        assert roll["simulated_seconds"] > 0
    # table5 runs parallel regions; the rollup must show them
    assert metrics_rollup(profiles[1])["cohort_regions"] > 0
