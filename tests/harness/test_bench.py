"""``repro bench --verify``: one walk over the registry's planned cells,
each run on pure DES and on the fast engine and held to
:func:`repro.harness.bench.parity_problem`."""

import dataclasses

import pytest

from repro.harness import registry
from repro.harness.bench import run_verify
from repro.harness.parallel import experiment_cells
from repro.harness.runner import BenchmarkData
from repro.machines.driver import MachineDriver
from repro.workload.cohort import ENGINE_ENV

#: a cheap registry subset: table2 and table3 share cells, and
#: ablation-finegrained-smp has a fine-grained cell that waits on a lock
SUBSET = ("table2", "table3", "ablation-finegrained-smp")
SCALES = dict(threat_scale=0.005, terrain_scale=0.01)


@pytest.fixture
def subset(monkeypatch):
    monkeypatch.setattr(registry, "EXPERIMENT_IDS", SUBSET)
    monkeypatch.delenv(ENGINE_ENV, raising=False)


def _first_owners(data):
    """Each distinct planned cell with the first experiment planning it."""
    owners = {}
    for eid in SUBSET:
        for cell in experiment_cells(eid, data):
            owners.setdefault(cell.key, (eid, cell))
    return owners


def test_verify_checks_every_distinct_planned_cell(subset, capsys):
    n_cells = len(_first_owners(BenchmarkData(**SCALES)))
    assert run_verify(BenchmarkData(**SCALES)) == 0
    out = capsys.readouterr().out
    assert (f"verified {n_cells} cells across {len(SUBSET)} experiments"
            in out), out
    assert ": 0 mismatches" in out


def test_verify_catches_a_lock_wait_mismatch(subset, monkeypatch, capsys):
    """Seconds still agree; only the fast engine's lock-wait total is
    off, by a relative 1e-3."""
    original = MachineDriver.run

    def skewed(self, job):
        result = original(self, job)
        if self.engine == "des":
            return result
        return dataclasses.replace(
            result, lock_wait_seconds=result.lock_wait_seconds * (1 + 1e-3))

    monkeypatch.setattr(MachineDriver, "run", skewed)
    data = BenchmarkData(**SCALES)
    assert run_verify(data) == 1
    out = capsys.readouterr().out
    locked = [(eid, cell) for eid, cell in _first_owners(data).values()
              if cell.run("des").lock_wait_seconds > 0]
    assert locked
    for eid, cell in locked:
        assert (f"MISMATCH {eid} / {cell.job.name}@{cell.seed_offset} "
                f"on {cell.spec.name}") in out, out
    assert out.count("MISMATCH") == len(locked)
    assert "lock_wait_seconds" in out
