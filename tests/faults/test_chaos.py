"""The chaos runner and ``repro chaos`` CLI: schedule determinism,
engine-independent payloads, monotone degradation."""

import json

import pytest

from repro.__main__ import main
from repro.faults.chaos import SCHEMA, chaos_report, render_report
from repro.harness import BenchmarkData
from repro.workload.cohort import ENGINE_ENV, ENGINES

SCALES = dict(threat_scale=0.01, terrain_scale=0.03)


@pytest.fixture(scope="module")
def data():
    return BenchmarkData(**SCALES)


def test_chaos_report_payload_shape(data):
    payload = chaos_report(["ablation-issue"], data, seed=4)
    assert payload["schema"] == SCHEMA
    assert payload["engine"] in ENGINES
    assert payload["seed"] == 4
    assert len(payload["experiments"]) == 1
    jobs = payload["experiments"][0]["jobs"]
    assert len(jobs) == 2          # one job x two machine archetypes
    for e in jobs:
        assert e["ok"]
        assert e["faulted_seconds"] >= e["healthy_seconds"]
        assert e["schedule"]
        assert e["stats"]["faults_injected"] == float(len(e["applied"]))
        # the full plan is realized in the schedule even where a kind
        # does not apply to the machine
        assert len(e["schedule"]) == 5


def test_chaos_payload_engine_independent(data, monkeypatch):
    """Byte-identical payloads (minus the engine tag) under DES and
    the default closed-form engine -- the CI chaos gate in miniature."""
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    cohort = chaos_report(["ablation-issue"], data, seed=9)
    monkeypatch.setenv(ENGINE_ENV, "des")
    des = chaos_report(["ablation-issue"], data, seed=9)
    assert cohort.pop("engine") == "closed"
    assert des.pop("engine") == "des"
    assert json.dumps(cohort, sort_keys=True) == \
        json.dumps(des, sort_keys=True)


def test_chaos_schedule_seed_sensitivity(data):
    a = chaos_report(["ablation-issue"], data, seed=1)
    b = chaos_report(["ablation-issue"], data, seed=2)
    sched_a = a["experiments"][0]["jobs"][0]["schedule"]
    sched_b = b["experiments"][0]["jobs"][0]["schedule"]
    assert sched_a != sched_b


def test_chaos_handles_jobless_experiments(data):
    payload = chaos_report(["autopar"], data)
    assert payload["experiments"][0]["jobs"] == []
    assert "no simulated jobs" in render_report(payload)


def test_chaos_cli_json(tmp_path, capsys):
    out = tmp_path / "chaos.json"
    status = main(["--threat-scale", "0.01", "--terrain-scale", "0.03",
                   "chaos", "ablation-issue", "--seed", "2",
                   "--faults", "streams:0.5:0.9",
                   "--json", str(out)])
    assert status == 0
    stdout = capsys.readouterr().out
    assert "chaos report" in stdout
    payload = json.loads(out.read_text())
    assert payload["schema"] == SCHEMA
    assert payload["plan"]["faults"] == [
        {"kind": "streams", "when": 0.5, "severity": 0.9}]


def test_chaos_cli_rejects_bad_input(capsys):
    assert main(["chaos"]) == 2
    assert main(["chaos", "not-an-experiment"]) == 2
    assert main(["chaos", "table5", "--faults", "bogus-kind"]) == 2
