"""Suite-wide fixtures.

CLI commands now persist run artifacts under ``./.repro_runs`` (see
:mod:`repro.harness.rundir`); tests must never write those into the
working tree, so every test gets its own throwaway run-directory root,
with ``REPRO_NO_RUNS`` cleared so a caller's opt-out cannot switch the
run store off under the tests that exercise it.
Tests that exercise the run-artifact layer itself simply read
``os.environ["REPRO_RUNS_DIR"]`` or point the fixture elsewhere.
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_runs_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "repro-runs"))
    monkeypatch.delenv("REPRO_NO_RUNS", raising=False)
