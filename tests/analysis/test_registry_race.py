"""The detector against the real benchmark workloads and registry.

These are the promises the race CI job enforces: every registered
experiment's simulated-thread jobs are race-free, the compiler's
dependence facts (not blanket silencing) clear the opaque Program-2
writes, and the report does not depend on the engine setting.  The
jobs checked are the ones a run of each experiment really simulates.
"""

import pytest

import json

from repro.analysis import analyze_job, race
from repro.analysis.facts import facts_for_job, loop_independent_arrays
from repro.analysis.report import JobReport
from repro.harness import registry
from repro.harness.parallel import (
    PlanningError,
    distinct_jobs,
    experiment_cells,
)
from repro.harness.registry import EXPERIMENT_IDS, run_experiment
from repro.harness.runner import BenchmarkData
from repro.workload.instrument import OpCounter
from repro.workload.ops import AccessMode

SCALES = dict(threat_scale=0.01, terrain_scale=0.03)


@pytest.fixture(scope="module")
def data():
    return BenchmarkData(**SCALES)


def test_checked_cells_are_what_a_real_run_simulates(monkeypatch):
    """For every experiment, the cells the parity sweep checks and the
    jobs race and chaos analyze are exactly the simulations a real run
    of the experiment performs -- recorded from the run itself, not
    from the planner."""
    seen: list[tuple[str, object]] = []   # (cache key, job) per run

    class Recording(BenchmarkData):
        def run_conventional(self, spec, job, **kw):
            n0 = len(self.metrics_log)
            seconds = super().run_conventional(spec, job, **kw)
            seen.append((self.metrics_log[n0]["key"], job))
            return seconds

        def run_mta_spec(self, spec, job, **kw):
            n0 = len(self.metrics_log)
            seconds = super().run_mta_spec(spec, job, **kw)
            seen.append((self.metrics_log[n0]["key"], job))
            return seconds

    real = Recording(**SCALES)
    analyzed: list = []

    def record(job):
        analyzed.append(job)
        return JobReport(job.name, ())

    monkeypatch.setattr(race, "analyze_job", record)
    n_cells = 0
    for eid in EXPERIMENT_IDS:
        del seen[:]
        run_experiment(eid, real)
        cells = experiment_cells(eid, real)
        assert [c.key for c in cells] == list(
            dict.fromkeys(key for key, _ in seen)), eid
        ran = {id(job) for _, job in seen}
        assert {id(c.job) for c in cells} == ran, eid
        assert {id(j) for j in distinct_jobs(cells).values()} == ran, eid
        del analyzed[:]
        race._analyze_experiments([eid], real)
        assert {id(j) for j in analyzed} == ran, eid
        assert len(analyzed) == len(distinct_jobs(cells)), eid
        n_cells += len(cells)
    assert n_cells >= 150


def test_failed_plan_fails_race_chaos_and_parity(data, monkeypatch):
    """An experiment that raises while planned is an error, never a
    shorter list of checked cells."""
    from repro.faults.chaos import run_chaos

    def broken(d):
        d.run_mta(1, d.threat_sequential_job())
        raise ZeroDivisionError("placeholder timings")

    monkeypatch.setitem(registry._EXPERIMENTS, "broken-demo", broken)
    with pytest.raises(PlanningError):
        experiment_cells("broken-demo", data)   # the parity sweep's rows
    assert race.run_race(["broken-demo"], data) == 1
    assert run_chaos(["broken-demo"], data) == 1
    with pytest.raises(KeyError):
        experiment_cells("no-such-experiment", data)


def test_threat_alternative_checks_the_job_it_runs(data):
    """Both fine-grained Threat jobs are named ``threat-finegrained``;
    the cells name the one-thread-per-threat job the experiment runs,
    on the machines it runs it on."""
    cells = [c for c in experiment_cells("threat-alternative", data)
             if c.job.name == "threat-finegrained"]
    assert {c.job_id for c in cells} == {"recipe:th-job-fg-all"}
    assert sorted(c.spec.name for c in cells) == [
        "HP Exemplar S-Class[16p]", "Tera MTA (SDSC prototype)[1p]",
        "Tera MTA (SDSC prototype)[2p]"]


def test_compiler_facts_for_program2():
    facts = facts_for_job("threat-chunked-16")
    assert facts == {"intervals", "num_intervals"}
    assert facts_for_job("threat-sequential") == frozenset()
    assert facts_for_job("terrain-finegrained") == frozenset()


def test_loop_independent_arrays_from_ir():
    from repro.compiler.programs import threat_chunked_ir
    loop = next(s for s in threat_chunked_ir(with_pragma=True).body
                if getattr(s, "pragma_parallel", False))
    assert loop_independent_arrays(loop) >= {"intervals",
                                             "num_intervals"}


def test_real_chunked_job_clean_only_because_of_facts(data):
    job = data.threat_chunked_job(8)
    report = analyze_job(job)
    assert report.clean
    # C(8,2) chunk pairs x 2 opaque arrays x 5 scenarios
    assert report.suppressed == 28 * 2 * 5


def test_real_blocked_job_clean_via_block_locks(data):
    report = analyze_job(data.terrain_blocked_job(4))
    assert report.clean
    assert report.suppressed == 0  # locks, not facts, clear these


def test_all_registered_experiments_clean(data):
    jobs = {}
    for eid in EXPERIMENT_IDS:
        jobs.update(distinct_jobs(experiment_cells(eid, data)))
    assert len(jobs) >= 30
    for jid, job in jobs.items():
        report = analyze_job(job)
        assert report.clean, (jid, [f.render() for f in report.findings])


def test_report_payload_engine_independent(data, monkeypatch, tmp_path):
    """The v2 payload carries no engine tag, and its bytes are the same
    whatever ``REPRO_ENGINE`` says."""
    from repro.workload.cohort import ENGINE_ENV

    ids = ["table5", "table9", "autopar"]
    payloads = []
    for engine in (None, "des"):
        if engine is None:
            monkeypatch.delenv(ENGINE_ENV, raising=False)
        else:
            monkeypatch.setenv(ENGINE_ENV, engine)
        path = tmp_path / f"race-{engine}.json"
        assert race.run_race(ids, data, json_path=str(path)) == 0
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1]
    payload = json.loads(payloads[0])
    assert payload["schema"] == "repro-race-report/v2"
    assert "engine" not in payload
    assert payload["clean"] is True
    assert sorted(payload["experiments"]) == sorted(ids)


def test_opcounter_touch_tracks_union_hull():
    c = OpCounter()
    c.touch("a", AccessMode.WRITE, 5, 9)
    c.touch("a", AccessMode.WRITE, 0, 2)
    c.touch("a", AccessMode.READ, 1)
    accs = c.accesses()
    spans = {(a.array, a.mode, a.lo, a.hi) for a in accs}
    assert spans == {("a", AccessMode.WRITE, 0, 9),
                     ("a", AccessMode.READ, 1, 1)}

    other = OpCounter()
    other.touch("a", AccessMode.WRITE, 20, 30)
    other.touch("b", AccessMode.READ, 0, 0)
    c.merge(other)
    spans = {(a.array, a.mode, a.lo, a.hi) for a in c.accesses()}
    assert ("a", AccessMode.WRITE, 0, 30) in spans
    assert ("b", AccessMode.READ, 0, 0) in spans
