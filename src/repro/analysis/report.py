"""Finding records and the schema-versioned race report."""

from __future__ import annotations

from dataclasses import dataclass

#: Version tag stamped on every JSON report; bump on shape changes.
RACE_REPORT_SCHEMA = "repro-race-report/v2"

#: The hazard vocabulary.  Static classes come from the job walk in
#: :mod:`repro.analysis.hb`; dynamic classes from the live
#: :class:`~repro.analysis.monitor.SyncMonitor`.
HAZARD_CLASSES = (
    "data-race",        # conflicting concurrent accesses, no common lock
    "lock-discipline",  # same location reached under inconsistent locksets
    "write-to-full",    # producer overwrote / stuck writing a full cell
    "read-from-empty",  # consumer stuck reading a never-filled cell
    "barrier-mismatch", # barrier generation short of its party count
    "deadlock",         # the program cannot finish at all
)


@dataclass(frozen=True)
class Finding:
    """One detected hazard.

    ``units`` names the threads / work items / sync objects involved
    (representatives -- ``detail`` carries the full count when a whole
    cohort conflicts).
    """

    hazard: str
    job: str
    region: str
    location: str
    units: tuple[str, ...]
    detail: str = ""

    def __post_init__(self) -> None:
        if self.hazard not in HAZARD_CLASSES:
            raise ValueError(f"unknown hazard class {self.hazard!r}")
        object.__setattr__(self, "units", tuple(self.units))

    @property
    def key(self) -> tuple:
        """Canonical identity, used for sorting."""
        return (self.job, self.region, self.hazard, self.location,
                self.units)

    def as_dict(self) -> dict:
        return {
            "hazard": self.hazard,
            "job": self.job,
            "region": self.region,
            "location": self.location,
            "units": list(self.units),
            "detail": self.detail,
        }

    def render(self) -> str:
        where = f"{self.job} / {self.region}" if self.job else self.region
        who = ", ".join(self.units)
        tail = f"  ({self.detail})" if self.detail else ""
        return f"[{self.hazard}] {where}: {self.location} by {who}{tail}"


@dataclass(frozen=True)
class JobReport:
    """The verdict for one job."""

    job: str
    findings: tuple[Finding, ...]
    suppressed: int = 0  #: candidate pairs cleared by dependence facts

    @property
    def clean(self) -> bool:
        return not self.findings

    def as_dict(self) -> dict:
        return {
            "job": self.job,
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": self.suppressed,
        }


def report_to_dict(experiment_reports: dict[str, list[JobReport]],
                   dynamic_findings: tuple[Finding, ...] = ()) -> dict:
    """The full ``repro race`` payload, JSON-ready and stably ordered."""
    experiments = {}
    clean = True
    for eid in sorted(experiment_reports):
        jobs = [jr.as_dict() for jr in
                sorted(experiment_reports[eid], key=lambda jr: jr.job)]
        experiments[eid] = {
            "jobs": jobs,
            "clean": all(not j["findings"] for j in jobs),
        }
        clean = clean and experiments[eid]["clean"]
    payload: dict = {
        "schema": RACE_REPORT_SCHEMA,
        "clean": clean and not dynamic_findings,
        "experiments": experiments,
    }
    if dynamic_findings:
        payload["dynamic_findings"] = [
            f.as_dict() for f in sorted(dynamic_findings,
                                        key=lambda f: f.key)]
    return payload


def render_report(experiment_reports: dict[str, list[JobReport]]) -> str:
    """Human-readable summary of a registry race run."""
    lines = ["race detector"]
    total = 0
    for eid in sorted(experiment_reports):
        reports = experiment_reports[eid]
        findings = [f for jr in reports for f in jr.findings]
        suppressed = sum(jr.suppressed for jr in reports)
        total += len(findings)
        jobs = len(reports)
        note = f", {suppressed} suppressed by dependence facts" \
            if suppressed else ""
        verdict = "clean" if not findings else \
            f"{len(findings)} finding(s)"
        lines.append(f"  {eid:24s} {jobs} job(s): {verdict}{note}")
        for f in findings:
            lines.append(f"    {f.render()}")
    lines.append(f"total findings: {total}")
    return "\n".join(lines)
