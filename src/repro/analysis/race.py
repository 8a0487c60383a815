"""The ``repro race`` driver.

Analyzes registered experiments (or all of them) with the
happens-before detector, optionally checks the buggy fixtures, and
writes the schema-versioned JSON report.  An experiment's targets are
the jobs of the simulation cells a run of it performs
(:func:`repro.harness.parallel.experiment_cells`), one per job and
seed universe.  Exit status is the CI contract:

* ``0`` -- every analyzed job clean (and, with ``--fixtures``, every
  fixture flagged with exactly its expected hazard classes);
* ``1`` -- a finding in a registered experiment, a fixture that failed
  to trip, or an experiment whose plan failed;
* ``2`` -- unknown experiment id.
"""

from __future__ import annotations

import json
import sys
from typing import Optional, Sequence

from repro.analysis.hb import analyze_job
from repro.analysis.report import (
    JobReport,
    RACE_REPORT_SCHEMA,
    render_report,
    report_to_dict,
)
from repro.harness.parallel import (
    PlanningError,
    distinct_jobs,
    experiment_cells,
)
from repro.harness.runner import BenchmarkData


def _analyze_experiments(ids: Sequence[str], data: BenchmarkData
                         ) -> dict[str, list[JobReport]]:
    """Per-experiment job reports; jobs shared between experiments are
    analyzed once."""
    memo: dict[tuple[str, int], JobReport] = {}
    out: dict[str, list[JobReport]] = {}
    for eid in ids:
        jobs = distinct_jobs(experiment_cells(eid, data))
        for jid, job in jobs.items():
            if jid not in memo:
                memo[jid] = analyze_job(job)
        out[eid] = [memo[jid] for jid in jobs]
    return out


def run_race(ids: Sequence[str], data: BenchmarkData, *,
             run_all: bool = False, fixtures: bool = False,
             json_path: Optional[str] = None) -> int:
    """Drive the detector; returns the process exit status."""
    from repro.harness.registry import EXPERIMENT_IDS, list_experiments

    if run_all:
        ids = list(EXPERIMENT_IDS)
    known = set(list_experiments())
    for eid in ids:
        if eid not in known:
            print(f"unknown experiment {eid!r}; known: "
                  f"{sorted(known)}", file=sys.stderr)
            return 2
    status = 0
    reports: dict[str, list[JobReport]] = {}
    if ids:
        try:
            reports = _analyze_experiments(ids, data)
        except PlanningError as exc:
            print(f"race: {exc}", file=sys.stderr)
            return 1
        print(render_report(reports))
        if any(f for rs in reports.values() for r in rs
               for f in r.findings):
            status = 1

    dynamic = ()
    if fixtures:
        fx_status, dynamic = _check_fixtures()
        status = status or fx_status

    if json_path is not None:
        payload = report_to_dict(reports, dynamic_findings=tuple(dynamic))
        payload["status"] = status
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {RACE_REPORT_SCHEMA} report to {json_path}")
    return status


def _check_fixtures():
    """Every fixture must trip exactly its expected hazard classes."""
    from repro.analysis.fixtures import FIXTURES

    status = 0
    dynamic = []
    print("\nfixture checks")
    for fx in FIXTURES:
        flagged, findings = fx.check()
        dynamic.extend(findings)
        expected = ",".join(sorted(fx.expected))
        seen = ",".join(sorted({f.hazard for f in findings})) or "none"
        mark = "ok " if flagged else "FAIL"
        print(f"  [{mark}] {fx.name:18s} expected {expected}; got {seen}")
        if not flagged:
            for f in findings:
                print(f"         {f.render()}")
            status = 1
    return status, dynamic
