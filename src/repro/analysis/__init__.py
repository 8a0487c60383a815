"""Deterministic race and sync-hazard detection for simulated programs.

The machine models execute :class:`~repro.workload.task.Job` programs
whose phases carry :class:`~repro.workload.ops.SharedAccess` records;
this package turns those records into verdicts:

* :mod:`repro.analysis.hb` builds the happens-before structure of a
  job (fork/join region barriers + per-thread program order + lockset
  mutual exclusion) and reports conflicting concurrent accesses.  The
  verdict is a property of the job, not of the engine that times it.
* :mod:`repro.analysis.facts` reuses the compiler's dependence
  analysis (:mod:`repro.compiler.dependence`) to suppress false
  positives on accesses whose subscripts provably separate iterations.
* :mod:`repro.analysis.monitor` hooks the live DES sync primitives
  (full/empty cells, barriers) for the dynamic hazards a static job
  walk cannot see: write-to-full overwrites, stuck readers/writers,
  barrier party mismatches.
* :mod:`repro.analysis.fixtures` ships intentionally buggy variants
  (dropped lock, off-by-one chunk overlap, skipped ``writeef``,
  barrier party mismatch) proving the detector catches what the
  output validators miss.
* :mod:`repro.analysis.race` drives ``repro race`` over the
  experiment registry and emits the schema-versioned JSON report.
"""

from repro.analysis.hb import analyze_job
from repro.analysis.monitor import SyncMonitor, monitoring
from repro.analysis.report import (
    Finding,
    JobReport,
    RACE_REPORT_SCHEMA,
    render_report,
    report_to_dict,
)

__all__ = [
    "Finding",
    "JobReport",
    "RACE_REPORT_SCHEMA",
    "SyncMonitor",
    "analyze_job",
    "monitoring",
    "render_report",
    "report_to_dict",
]
