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
  to trip, an engine-parity divergence, or an experiment whose plan
  failed;
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
from repro.workload.cohort import resolve_engine


def _analyze_experiments(ids: Sequence[str], data: BenchmarkData,
                         engine: str, parity: bool
                         ) -> tuple[dict[str, list[JobReport]], int]:
    """Per-experiment job reports; jobs shared between experiments are
    analyzed once.  Returns the reports and a status (0 clean, 1 not).
    With ``parity`` each job is also analyzed under the other
    extraction (DES against the cohort walk) and must agree."""
    status = 0
    memo: dict[tuple[str, int], JobReport] = {}
    out: dict[str, list[JobReport]] = {}
    other = "closed" if engine == "des" else "des"
    for eid in ids:
        reports = []
        for jid, job in distinct_jobs(experiment_cells(eid, data)).items():
            if jid not in memo:
                memo[jid] = analyze_job(job, engine)
                if parity:
                    mine, theirs = memo[jid], analyze_job(job, other)
                    if mine.findings != theirs.findings \
                            or mine.suppressed != theirs.suppressed:
                        print(f"ENGINE PARITY FAILURE for {job.name} "
                              f"({jid[0]}@{jid[1]}):\n"
                              f"  {engine}: "
                              f"{[f.render() for f in mine.findings]}\n"
                              f"  {other}: "
                              f"{[f.render() for f in theirs.findings]}",
                              file=sys.stderr)
                        status = 1
            reports.append(memo[jid])
        out[eid] = reports
    return out, status


def run_race(ids: Sequence[str], data: BenchmarkData, *,
             run_all: bool = False, fixtures: bool = False,
             json_path: Optional[str] = None,
             parity: bool = True) -> int:
    """Drive the detector on the ``REPRO_ENGINE`` extraction; returns
    the process exit status."""
    from repro.harness.registry import EXPERIMENT_IDS, list_experiments

    engine = resolve_engine()
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
            reports, status = _analyze_experiments(ids, data, engine,
                                                   parity)
        except PlanningError as exc:
            print(f"race: {exc}", file=sys.stderr)
            return 1
        print(render_report(reports, engine))
        if any(f for rs in reports.values() for r in rs
               for f in r.findings):
            status = 1

    dynamic = ()
    if fixtures:
        fx_status, dynamic = _check_fixtures(engine)
        status = status or fx_status

    if json_path is not None:
        payload = report_to_dict(reports, engine,
                                 dynamic_findings=tuple(dynamic))
        payload["status"] = status
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {RACE_REPORT_SCHEMA} report to {json_path}")
    return status


def _check_fixtures(engine: str):
    """Every fixture must trip exactly its expected hazard classes."""
    from repro.analysis.fixtures import FIXTURES

    status = 0
    dynamic = []
    print(f"\nfixture checks ({engine} engine)")
    for fx in FIXTURES:
        flagged, findings = fx.check(engine)
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
