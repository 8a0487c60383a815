"""Race-detector and chaos coverage over the generated workloads.

Positive direction: the registered ``taskbench`` experiment -- MTA,
Exemplar *and* CMT cells -- is race-clean, and chaos fault injection
over it (including the CMT archetype) degrades every job
monotonically.  Negative direction: the deliberately mis-synchronized
mesh must trip the detector, both as the registered ``mesh-missync``
fixture and as a synthetic registry experiment driven through
``run_race`` (exit code 1 -- the CI contract for a finding in a
registered experiment).
"""

import pytest

from repro.analysis.race import run_race
from repro.harness.runner import BenchmarkData
from repro.taskbench import missync_mesh_job

SCALES = dict(threat_scale=0.01, terrain_scale=0.03)


@pytest.fixture(scope="module")
def data():
    return BenchmarkData(**SCALES)


# ----------------------------------------------------------------------
# positive: generated workloads are race-clean, chaos stays monotone
# ----------------------------------------------------------------------

def test_taskbench_experiment_is_race_clean(data, capsys):
    status = run_race(["taskbench"], data)
    assert status == 0
    out = capsys.readouterr().out
    assert "taskbench" in out and "clean" in out
    # the experiment spans all five generated recipes
    from repro.harness.parallel import distinct_jobs, experiment_cells

    jobs = distinct_jobs(experiment_cells("taskbench", data))
    assert len(jobs) == 5
    assert all(job.name.startswith("tb-") for job in jobs.values())


def test_missync_fixture_is_registered_and_trips():
    from repro.analysis.fixtures import FIXTURES

    fixture = {fx.name: fx for fx in FIXTURES}["mesh-missync"]
    assert fixture.expected == frozenset({"data-race"})
    flagged, findings = fixture.check()
    assert flagged
    assert findings
    assert {f.hazard for f in findings} == {"data-race"}


def test_chaos_over_taskbench_covers_mta_and_cmt(data, tmp_path):
    import json

    from repro.faults.chaos import run_chaos

    json_path = tmp_path / "chaos.json"
    status = run_chaos(["taskbench"], data, machines=("mta", "cmt"),
                       json_path=str(json_path))
    assert status == 0
    payload = json.loads(json_path.read_text())
    entries = [e for exp in payload["experiments"] for e in exp["jobs"]]
    machines = {e["machine"] for e in entries}
    assert any("Tera MTA" in m for m in machines)
    assert any("SPARC T3-4" in m for m in machines)
    for entry in entries:
        assert entry["ok"], entry  # faults never speed a job up
        assert entry["job"].startswith("tb-")
        assert entry["faulted_seconds"] >= entry["healthy_seconds"]


def test_chaos_rejects_unknown_machine_archetype(data):
    from repro.faults.chaos import run_chaos

    assert run_chaos(["taskbench"], data, machines=("mta", "gpu")) == 2


# ----------------------------------------------------------------------
# negative control: the detector must catch the planted bug
# ----------------------------------------------------------------------

def test_missync_mesh_as_registered_experiment_exits_one(
        data, monkeypatch, capsys):
    """Plant the broken mesh behind a synthetic experiment id that
    simulates it; the ``repro race`` driver must report the finding
    and exit 1."""
    from repro.harness import registry

    monkeypatch.setitem(registry._EXPERIMENTS, "missync-demo",
                        lambda d: d.run_mta(1, missync_mesh_job()))
    status = run_race(["missync-demo"], data)
    assert status == 1
    out = capsys.readouterr().out
    assert "tb-mesh-missync-w4-d3" in out
    assert "data-race" in out


def test_missync_job_flagged_directly():
    from repro.analysis.hb import analyze_job

    report = analyze_job(missync_mesh_job())
    assert report.findings
    assert {f.hazard for f in report.findings} == {"data-race"}
