"""Tests for the command-line interface."""

import pytest

from repro.__main__ import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table5" in out and "autopar" in out and "fig2" in out


def test_run_single_experiment(capsys):
    code = main(["--threat-scale", "0.01", "--terrain-scale", "0.03",
                 "run", "autopar"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Automatic parallelization" in out
    assert "PASS" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "table99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_table_with_small_kernels(capsys):
    code = main(["--threat-scale", "0.01", "--terrain-scale", "0.03",
                 "run", "table2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Alpha" in out and "Tera" in out


def test_trace_command_writes_valid_chrome_json(tmp_path, capsys):
    import json

    from repro.obs.trace import validate_chrome_trace

    out = str(tmp_path / "trace.json")
    code = main(["--threat-scale", "0.01", "--terrain-scale", "0.03",
                 "trace", "table2", "-o", out])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "wrote" in stdout and "trace events" in stdout
    with open(out) as fh:
        obj = json.load(fh)
    assert validate_chrome_trace(obj) > 0
    # one trace process per simulated machine run, each named
    names = [e["args"]["name"] for e in obj["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"]
    assert len(names) == 4 and any("Alpha" in n for n in names)


def test_trace_unknown_experiment(capsys):
    assert main(["trace", "table99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_feedback_command(capsys):
    assert main(["feedback"]) == 0
    out = capsys.readouterr().out
    assert "ThreatAnalysis" in out
    assert "no practical opportunities" in out
    assert "Advisories" in out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_race_requires_target(capsys):
    assert main(["race"]) == 2
    assert "give experiment ids" in capsys.readouterr().err


def test_race_unknown_experiment(capsys):
    assert main(["race", "table99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_race_clean_experiment_writes_report(tmp_path, capsys):
    import json

    out = str(tmp_path / "race.json")
    code = main(["--threat-scale", "0.01", "--terrain-scale", "0.03",
                 "race", "table2", "table9", "--json", out])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "race detector" in stdout and "clean" in stdout
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["schema"] == "repro-race-report/v2"
    assert "engine" not in payload
    assert payload["clean"] is True and payload["status"] == 0
    assert set(payload["experiments"]) == {"table2", "table9"}


def test_race_fixtures_all_flagged(capsys):
    code = main(["race", "--fixtures"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    for name in ("chunk-overlap", "dropped-lock", "skipped-writeef",
                 "barrier-mismatch", "overwrite-full"):
        assert name in out


def test_race_finding_exits_nonzero(monkeypatch, capsys):
    from repro.harness import registry
    from repro.workload.builder import make_phase
    from repro.workload.ops import OpCounts, write_of
    from repro.workload.task import (
        Compute,
        Job,
        ParallelRegion,
        ThreadProgram,
    )

    def racy_job():
        threads = tuple(
            ThreadProgram(f"t{i}", (Compute(make_phase(
                f"p{i}", OpCounts(ialu=10),
                accesses=(write_of("x", 0, 9),))),))
            for i in range(2))
        return Job("planted-racy", (ParallelRegion(threads),))

    # an experiment that really simulates the racy job: race checks
    # what a run simulates, inline-built jobs included
    monkeypatch.setitem(registry._EXPERIMENTS, "autopar",
                        lambda data: data.exemplar(2, racy_job()))
    code = main(["race", "autopar"])
    out = capsys.readouterr().out
    assert code == 1
    assert "data-race" in out


def test_race_alias_resolves(capsys):
    code = main(["--threat-scale", "0.01", "--terrain-scale", "0.03",
                 "race", "fig3"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_race_no_parity_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["race", "fig3", "--no-parity"])
    assert exc.value.code == 2
    assert "--no-parity" in capsys.readouterr().err


def test_trace_default_output_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["--threat-scale", "0.01", "--terrain-scale", "0.03",
                 "trace", "table2"])
    assert code == 0
    assert (tmp_path / "trace-table2.json").exists()
    assert "trace-table2.json" in capsys.readouterr().out


def test_cache_info_and_clear(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path / "cache") in out
    assert "entries:   0" in out
    assert "enabled:   yes" in out

    # populate via a real run, then inspect and clear
    assert main(["--threat-scale", "0.01", "--terrain-scale", "0.03",
                 "run", "table2"]) == 0
    capsys.readouterr()
    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    entries = int(out.split("entries:")[1].split()[0])
    assert entries > 0
    assert "epoch:" in out

    assert main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert f"removed {entries} cached results" in out
    assert main(["cache", "info"]) == 0
    assert "entries:   0" in capsys.readouterr().out


def test_cache_info_reports_disabled(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert main(["cache", "info"]) == 0
    assert "no (REPRO_NO_CACHE)" in capsys.readouterr().out
