"""Harness-level fault tolerance: worker crashes, traceback
propagation, cache-corruption detection, run watchdog."""

import json
import os

import pytest

from repro.harness import store
from repro.harness.parallel import (
    CHAOS_CRASH_ENV,
    RETRY_BACKOFF_ENV,
    RETRY_MAX_ENV,
    WorkerError,
    _maybe_crash,
    run_experiments,
)
from repro.faults.plan import derive_unit

SCALES = dict(threat_scale=0.01, terrain_scale=0.03)
#: cheap experiments whose cells span five fault units:
#: ``cell:th-job-seq@0`` and ``cell:th-job-ch-<k>-os@0`` for k = 1..4
CHEAP = ["table2", "table3"]
CHEAP_UNITS = ["cell:th-job-seq@0"] + [
    f"cell:th-job-ch-{k}-os@0" for k in range(1, 5)]


def crash_env(units_to_crash, mode="exit", attempts=(0,), seed_limit=5000,
              rate=0.2):
    """Find a seed that crashes exactly the given (unit, attempt)
    pairs among CHEAP's cell units -- deterministic by construction."""
    want = {(u, a) for u in units_to_crash for a in attempts}
    for seed in range(seed_limit):
        hits = {(u, a) for u in CHEAP_UNITS for a in (0, 1, 2)
                if derive_unit(seed, u, a, "worker-crash") < rate}
        if hits == want:
            return f"{seed}:{rate}:{mode}"
    raise AssertionError("no suitable crash seed found")


# ----------------------------------------------------------------------
# worker traceback propagation (the old behaviour swallowed it)
# ----------------------------------------------------------------------

def test_worker_error_carries_child_traceback(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    monkeypatch.setenv(CHAOS_CRASH_ENV, "1:1.1:raise")  # always raise
    monkeypatch.setenv(RETRY_MAX_ENV, "1")
    with pytest.raises(WorkerError) as excinfo:
        run_experiments(CHEAP, jobs=2, **SCALES)
    err = excinfo.value
    assert err.unit in CHEAP_UNITS
    assert "injected worker fault" in err.child_traceback
    assert "Traceback (most recent call last)" in err.child_traceback
    # the child traceback is part of the rendered message
    assert "worker traceback" in str(err)


def test_worker_error_survives_pickling():
    import pickle

    err = WorkerError("cell:th-job-seq@0", "Traceback ...")
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, WorkerError)
    assert clone.unit == "cell:th-job-seq@0"
    assert clone.child_traceback == "Traceback ..."


# ----------------------------------------------------------------------
# crash injection + retry + salvage
# ----------------------------------------------------------------------

def test_crash_config_validation(monkeypatch):
    monkeypatch.setenv(CHAOS_CRASH_ENV, "7")
    with pytest.raises(ValueError):
        _maybe_crash("x", 0)
    monkeypatch.setenv(CHAOS_CRASH_ENV, "7:0.5:explode")
    with pytest.raises(ValueError):
        _maybe_crash("x", 0)
    # every worker unit is a cell: the old opt-in suffix is an error
    monkeypatch.setenv(CHAOS_CRASH_ENV, "7:0.5:exit+cells")
    with pytest.raises(ValueError, match=r"\+cells"):
        _maybe_crash("cell:th-job-seq@0", 0)
    monkeypatch.delenv(CHAOS_CRASH_ENV)
    _maybe_crash("x", 0)  # no config: no-op


def test_crashed_worker_retried_and_salvaged(monkeypatch, tmp_path):
    """One cell unit's worker dies on attempt 0; the pool is rebuilt,
    the other units' completed results are salvaged, and the retry
    succeeds."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    monkeypatch.setenv(CHAOS_CRASH_ENV,
                       crash_env(["cell:th-job-ch-2-os@0"], mode="exit"))
    monkeypatch.setenv(RETRY_BACKOFF_ENV, "0.01")
    results, profiles = run_experiments(CHEAP, jobs=2, **SCALES)
    assert sorted(results) == sorted(CHEAP)
    for eid in CHEAP:
        assert results[eid].all_checks_pass(), eid
    assert [p.experiment_id for p in profiles] == CHEAP


def test_crash_every_attempt_exhausts_retries(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    monkeypatch.setenv(CHAOS_CRASH_ENV, "3:1.1:exit")  # always crash
    monkeypatch.setenv(RETRY_MAX_ENV, "2")
    monkeypatch.setenv(RETRY_BACKOFF_ENV, "0.01")
    with pytest.raises(WorkerError) as excinfo:
        run_experiments(CHEAP, jobs=2, **SCALES)
    assert "worker process died" in str(excinfo.value)
    assert "2 attempts" in str(excinfo.value)


def test_crashed_cell_retried_and_salvaged(monkeypatch, tmp_path):
    """Cell-granular salvage: every cell of table2 shares the fault
    unit ``cell:th-job-seq@0``; a seed that faults that unit on
    attempt 0 kills each cell's first worker, and every one of them
    must be isolated, retried and folded back into a passing run.

    Runs at scales no other test uses: forked workers inherit the
    parent's process-wide in-process memo, and warm memos would let
    the cells answer without ever touching the (empty) persistent
    cache -- this test needs genuinely cold cells."""
    from repro.faults.plan import derive_unit as d

    unit = "cell:th-job-seq@0"
    for seed in range(5000):
        hits = {a for a in (0, 1, 2)
                if d(seed, unit, a, "worker-crash") < 0.5}
        if hits == {0}:
            break
    else:
        raise AssertionError("no suitable crash seed found")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    monkeypatch.setenv(CHAOS_CRASH_ENV, f"{seed}:0.5:exit")
    monkeypatch.setenv(RETRY_BACKOFF_ENV, "0.01")
    results, profiles = run_experiments(
        ["table2"], jobs=2, threat_scale=0.012, terrain_scale=0.03)
    assert results["table2"].all_checks_pass()
    (profile,) = profiles
    # the cells were computed (and charged) despite the crashes
    assert profile.cache_misses > 0


def test_cell_crash_every_attempt_exhausts_retries(monkeypatch,
                                                   tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    monkeypatch.setenv(CHAOS_CRASH_ENV, "3:1.1:exit")
    monkeypatch.setenv(RETRY_MAX_ENV, "2")
    monkeypatch.setenv(RETRY_BACKOFF_ENV, "0.01")
    with pytest.raises(WorkerError) as excinfo:
        run_experiments(["table2"], jobs=2, **SCALES)
    assert "worker process died" in str(excinfo.value)
    assert "2 attempts" in str(excinfo.value)


def test_serial_path_ignores_crash_injection(monkeypatch, tmp_path):
    """jobs=1 runs in-process; crash faults target workers only."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    monkeypatch.setenv(CHAOS_CRASH_ENV, "3:1.1:exit")
    results, _ = run_experiments(["table2"], jobs=1, **SCALES)
    assert results["table2"].all_checks_pass()


# ----------------------------------------------------------------------
# cache corruption detection
# ----------------------------------------------------------------------

def test_cache_checksum_roundtrip(tmp_path):
    cache = store.ResultCache(str(tmp_path))
    cache.put("k" * 8, {"seconds": 1.5, "machine": "m", "job": "j"})
    entry = cache.get("k" * 8)
    assert entry is not None and entry["seconds"] == 1.5
    assert entry["sha256"] == cache.payload_checksum(entry)
    assert cache.corrupt == 0


def test_cache_detects_silent_corruption(tmp_path):
    """A bit flip that keeps the JSON valid -- the pre-checksum reader
    would happily serve the wrong seconds."""
    cache = store.ResultCache(str(tmp_path))
    key = "a" * 8
    cache.put(key, {"seconds": 1.5, "machine": "m", "job": "j"})
    path = cache._path(key)
    payload = json.loads(open(path).read())
    payload["seconds"] = 99.0  # corrupted result, checksum stale
    with open(path, "w") as fh:
        json.dump(payload, fh)

    assert cache.get(key) is None          # detected, not served
    assert cache.corrupt == 1
    assert not os.path.exists(path)        # discarded for recompute
    assert cache.info()["corrupt_discarded"] == 1


def test_cache_rejects_legacy_unchecksummed_entries(tmp_path):
    cache = store.ResultCache(str(tmp_path))
    key = "b" * 8
    with open(cache._path(key), "w") as fh:
        json.dump({"schema": store.CACHE_SCHEMA_VERSION,
                   "seconds": 2.0, "key": key}, fh)
    assert cache.get(key) is None
    assert cache.corrupt == 1


def test_corrupt_entry_transparently_recomputed(tmp_path, monkeypatch):
    """End to end: corrupt a simulation entry on disk, re-run the
    experiment, get the correct (recomputed) result."""
    from repro.harness import BenchmarkData, run_experiment

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    data = BenchmarkData(**SCALES)
    before = run_experiment("table2", data)

    cache = store.active_cache()
    for path in cache._entries():
        payload = json.loads(open(path).read())
        payload["seconds"] = payload["seconds"] * 10
        with open(path, "w") as fh:
            json.dump(payload, fh)

    fresh = BenchmarkData(**SCALES)
    after = run_experiment("table2", fresh)
    assert [r.simulated for r in after.rows] == \
        [r.simulated for r in before.rows]
    assert cache.corrupt > 0
