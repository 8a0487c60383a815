"""Happens-before construction and race detection over jobs.

**The model.**  A :class:`~repro.workload.task.Job` is a fork/join
program: serial steps and parallel regions are totally ordered by
implicit join barriers, so conflicting accesses in *different* steps
are always ordered and only intra-region pairs can race.  Within a
region:

* two accesses in the same thread (or the same work item) are ordered
  by program order;
* accesses in different threads of a :class:`ParallelRegion` are
  concurrent -- the region barrier is the only cross-thread edge;
* accesses in different items of a :class:`WorkQueueRegion` with more
  than one worker are concurrent: which items overlap in time depends
  on the dynamic schedule, and a sound verdict must hold for *every*
  schedule, not the one a particular simulation happened to take.
  With one worker the queue is a serial loop and nothing races.

A concurrent pair conflicts when the location ranges overlap and at
least one side writes.  Lock acquisition deliberately contributes **no**
happens-before edge (locks order critical sections differently in
different schedules); instead, a conflicting pair is cleared only by a
common member in both locksets, or by a compiler dependence fact
(:mod:`repro.analysis.facts`) when both extents are opaque.  A cleared
pair whose locksets are inconsistent -- some accesses to the location
guarded, others not or by a different lock -- is still reported as a
``lock-discipline`` hazard: that is precisely the blocked Terrain
Masking bug class (merging into a masking block under the wrong or no
block lock).

**One extraction.**  Access events are pulled out of a region in the
order ``MachineDriver._thread_body`` runs them: one process per
thread in declaration order, the work queue drained item by item.
The engines only choose how a region's time is computed, never which
accesses it performs, so the verdict has no engine axis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.facts import facts_for_job
from repro.analysis.report import Finding, JobReport
from repro.workload.ops import SharedAccess
from repro.workload.task import (
    Critical,
    Job,
    ParallelRegion,
    SerialStep,
    WorkQueueRegion,
)


@dataclass(frozen=True)
class AccessEvent:
    """One shared access by one schedulable unit of a region."""

    unit: str                 #: thread / work-item name
    access: SharedAccess
    locks: frozenset[str]     #: locks held at the access


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------

def _item_events(unit: str, items) -> Iterable[AccessEvent]:
    for it in items:
        locks = frozenset((it.lock,)) if isinstance(it, Critical) \
            else frozenset()
        for acc in it.phase.accesses:
            yield AccessEvent(unit, acc, locks)


def _events(region) -> list[AccessEvent]:
    """The region's accesses: one process per thread (declaration
    order), the work queue drained item by item in FIFO order."""
    events: list[AccessEvent] = []
    if isinstance(region, ParallelRegion):
        for th in region.threads:
            events.extend(_item_events(th.name, th.items))
    else:
        for item in region.items:
            events.extend(_item_events(item.name, item.items))
    return events


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------

def _describe(access: SharedAccess, locks: frozenset[str]) -> str:
    held = f", locks {','.join(sorted(locks))}" if locks else ""
    return f"{access.span()} ({access.mode.value}{held})"


def _rep_pair(units_a: list[str], units_b: list[str]
              ) -> tuple[str, str]:
    """A representative pair of distinct units, one from each list
    (the caller guarantees one exists)."""
    if units_a is units_b:
        other = next(u for u in units_a if u != units_a[0])
        return units_a[0], other
    if units_b[0] != units_a[0]:
        return units_a[0], units_b[0]
    if len(units_b) > 1:
        return units_a[0], units_b[1]
    return units_a[1], units_b[0]


def _region_findings(job_name: str, region_label: str, region,
                     events: list[AccessEvent],
                     facts: frozenset[str]) -> tuple[list[Finding], int]:
    """All hazards among the region's concurrent access events.

    The scan is pairwise in principle, but real regions repeat the
    same access across hundreds of threads, so events are clustered by
    ``(access, lockset)`` first and pair counts come from cluster
    sizes: cost is quadratic in *distinct* accesses, linear in
    threads.
    """
    if isinstance(region, WorkQueueRegion) and region.n_threads < 2:
        return [], 0  # one worker: the queue is a serial loop

    by_array: dict[str, dict[tuple, list[str]]] = {}
    for ev in events:
        clusters = by_array.setdefault(ev.access.array, {})
        clusters.setdefault((ev.access, ev.locks), []).append(ev.unit)

    findings: list[Finding] = []
    suppressed = 0
    for array in sorted(by_array):
        clusters = list(by_array[array].items())
        if not any(acc.mode.is_write for (acc, _), _ in clusters):
            continue  # read-only data cannot race
        pairs = 0
        example: dict[tuple[str, str], Finding] = {}
        for i, ((acc_a, lk_a), units_a) in enumerate(clusters):
            for j in range(i, len(clusters)):
                (acc_b, lk_b), units_b = clusters[j]
                if not (acc_a.mode.is_write or acc_b.mode.is_write):
                    continue
                if not acc_a.overlaps(acc_b):
                    continue
                if lk_a & lk_b:
                    continue  # mutual exclusion
                # unit pairs, minus same-unit pairs (program order)
                if j == i:
                    counts = Counter(units_a)
                    n = len(units_a)
                    npairs = n * (n - 1) // 2 - sum(
                        k * (k - 1) // 2 for k in counts.values())
                else:
                    ca, cb = Counter(units_a), Counter(units_b)
                    npairs = len(units_a) * len(units_b) - sum(
                        ca[u] * cb[u] for u in ca.keys() & cb.keys())
                if npairs == 0:
                    continue
                if (array in facts and not acc_a.bounded
                        and not acc_b.bounded):
                    # the compiler proved the subscripts separate
                    # iterations; the workload just cannot express it
                    suppressed += npairs
                    continue
                hazard = "lock-discipline" if (lk_a or lk_b) \
                    else "data-race"
                loc = acc_a.span() if acc_a.bounded else acc_b.span()
                key = (hazard, loc)
                pairs += npairs
                if key not in example:
                    example[key] = Finding(
                        hazard=hazard, job=job_name,
                        region=region_label, location=loc,
                        units=_rep_pair(units_a, units_b),
                        detail=f"{_describe(acc_a, lk_a)} vs "
                               f"{_describe(acc_b, lk_b)}")
        for key in sorted(example):
            f = example[key]
            if pairs > 1:
                f = Finding(f.hazard, f.job, f.region, f.location,
                            f.units,
                            f.detail + f"; {pairs} conflicting pair(s) "
                                       f"on {array}")
            findings.append(f)
    return findings, suppressed


def analyze_job(job: Job) -> JobReport:
    """Race/hazard verdict for one job."""
    facts = facts_for_job(job.name)
    findings: list[Finding] = []
    suppressed = 0
    for idx, step in enumerate(job.steps):
        if isinstance(step, SerialStep):
            continue  # one thread: program order covers everything
        label = f"step{idx}"
        fs, sup = _region_findings(job.name, label, step, _events(step),
                                   facts)
        findings.extend(fs)
        suppressed += sup
    findings.sort(key=lambda f: f.key)
    return JobReport(job=job.name, findings=tuple(findings),
                     suppressed=suppressed)
