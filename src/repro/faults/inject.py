"""Applying a fault schedule to the macro machine models.

The macro models (:class:`~repro.mta.machine.MtaMachine`,
:class:`~repro.machines.machine.ConventionalMachine`) run a
:class:`~repro.workload.task.Job` whose steps are barriers: nothing of
step *k+1* starts before everything of step *k* finishes.  That makes
"a fault strikes mid-run" exactly equivalent to "split the job at the
fault's activation step and run the tail on a degraded machine" -- and
*that* formulation works identically under the pure-DES and vectorized
cohort engines, so fault injection inherits the engines' 1e-9
agreement instead of breaking it.

Derating is pure :func:`dataclasses.replace` on the frozen spec
dataclasses; the fault kinds map onto spec fields as documented in
DESIGN.md section 10.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from repro.faults.plan import (
    CONVENTIONAL_KINDS,
    MTA_KINDS,
    FaultPlan,
    ScheduledFault,
)
from repro.machines.machine import ConventionalMachine
from repro.machines.spec import MachineSpec, ThreadCosts
from repro.mta.machine import MtaMachine
from repro.mta.spec import MtaSpec
from repro.workload.task import Job


# ----------------------------------------------------------------------
# spec derating
# ----------------------------------------------------------------------

def _scaled_costs(costs: dict[str, ThreadCosts],
                  sync_factor: float) -> dict[str, ThreadCosts]:
    return {k: replace(c, sync_cycles=c.sync_cycles * sync_factor)
            for k, c in costs.items()}


def derate_mta(spec: MtaSpec,
               faults: Iterable[ScheduledFault]) -> MtaSpec:
    """The MTA spec with the given (active) faults applied.

    ``streams``: lose up to 90% of the hardware streams;
    ``bank-hotspot``: lose up to 80% of per-processor network bandwidth;
    ``febit-stall``: memory latency up to 4x, synchronization up to 21x.
    Other kinds do not apply and are ignored.
    """
    out = spec
    for f in faults:
        if f.kind == "streams":
            n = max(1, int(round(
                spec.streams_per_processor * (1.0 - 0.9 * f.severity))))
            out = replace(out, streams_per_processor=min(
                out.streams_per_processor, n))
        elif f.kind == "bank-hotspot":
            out = replace(out, network_words_per_cycle=(
                out.network_words_per_cycle * (1.0 - 0.8 * f.severity)))
        elif f.kind == "febit-stall":
            out = replace(
                out,
                mem_latency_cycles=out.mem_latency_cycles
                * (1.0 + 3.0 * f.severity),
                thread_costs=_scaled_costs(out.thread_costs,
                                           1.0 + 20.0 * f.severity))
    return out


def derate_conventional(spec: MachineSpec,
                        faults: Iterable[ScheduledFault]) -> MachineSpec:
    """The conventional-machine spec with the given faults applied.

    ``cache-ways``: lose up to ``assoc - 1`` ways (and the matching
    capacity); ``mem-latency``: miss latency up to 4x;
    ``bank-hotspot``: lose up to 80% of bus bandwidth.  Other kinds do
    not apply and are ignored.
    """
    out = spec
    for f in faults:
        if f.kind == "cache-ways":
            assoc = out.cache.assoc
            lost = int(round(f.severity * (assoc - 1)))
            new_assoc = max(1, assoc - lost)
            if new_assoc != assoc:
                out = replace(out, cache=replace(
                    out.cache, assoc=new_assoc,
                    capacity_bytes=out.cache.capacity_bytes
                    * new_assoc / assoc))
        elif f.kind == "mem-latency":
            out = replace(out, mem=replace(
                out.mem,
                miss_latency_s=out.mem.miss_latency_s
                * (1.0 + 3.0 * f.severity)))
        elif f.kind == "bank-hotspot":
            out = replace(out, mem=replace(
                out.mem,
                bandwidth_bytes_per_s=out.mem.bandwidth_bytes_per_s
                * (1.0 - 0.8 * f.severity)))
    return out


# ----------------------------------------------------------------------
# job splitting
# ----------------------------------------------------------------------

def split_job(job: Job, boundaries: Iterable[int]) -> list[Job]:
    """Split a job at the given step indices.

    A boundary ``b`` starts a new segment at step ``b``.  Boundaries
    outside ``(0, len(steps))`` and duplicates are ignored; with no
    effective boundary the job comes back whole (same object).
    Because steps are barriers, running the segments back to back is
    semantically identical to running the original job.
    """
    cuts = sorted({b for b in boundaries if 0 < b < len(job.steps)})
    if not cuts:
        return [job]
    out = []
    starts = [0] + cuts
    ends = cuts + [len(job.steps)]
    for i, (lo, hi) in enumerate(zip(starts, ends)):
        out.append(Job(name=f"{job.name}#seg{i}", steps=job.steps[lo:hi]))
    return out


# ----------------------------------------------------------------------
# faulted runs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultedRun:
    """Outcome of one fault-injected job run."""

    machine: str
    job: str
    seconds: float
    schedule: tuple[ScheduledFault, ...]
    applied: tuple[ScheduledFault, ...]   # kinds this machine honors
    n_segments: int
    stats: dict[str, float]

    @property
    def lock_wait_seconds(self) -> float:
        """Lock wait summed over the segments, like ``seconds``."""
        return self.stats.get("lock_wait_seconds", 0.0)


def _merge_stats(totals: dict[str, float], stats: dict[str, float]) -> None:
    for k, v in stats.items():
        totals[k] = totals.get(k, 0.0) + float(v)


def _attribution(applied: tuple[ScheduledFault, ...]) -> dict[str, float]:
    out = {"faults_injected": float(len(applied))}
    for f in applied:
        out[f"fault_{f.kind}_severity"] = f.severity
        out[f"fault_{f.kind}_step"] = float(f.step)
    return out


def _run_segments(job: Job, schedule: tuple[ScheduledFault, ...],
                  applied: tuple[ScheduledFault, ...],
                  machine_name: str, make_machine) -> FaultedRun:
    segments = split_job(job, (f.step for f in applied))
    seconds = 0.0
    totals: dict[str, float] = {}
    start = 0
    for seg in segments:
        active = tuple(f for f in applied if f.step <= start)
        result = make_machine(active).run(seg)
        seconds += result.seconds
        _merge_stats(totals, result.stats)
        totals["lock_wait_seconds"] = (
            totals.get("lock_wait_seconds", 0.0)
            + result.lock_wait_seconds)
        start += len(seg.steps)
    totals.update(_attribution(applied))
    return FaultedRun(machine=machine_name, job=job.name,
                      seconds=seconds, schedule=schedule,
                      applied=applied, n_segments=len(segments),
                      stats=totals)


def run_faulted_mta(spec: MtaSpec, job: Job, plan: FaultPlan, *,
                    slices_per_phase: int = 8,
                    engine: Optional[str] = None) -> FaultedRun:
    """Run ``job`` on the MTA under ``plan``'s faults."""
    schedule = plan.schedule(job.name, len(job.steps), spec.name)
    applied = tuple(f for f in schedule if f.kind in MTA_KINDS)
    return _run_segments(
        job, schedule, applied, spec.name,
        lambda active: MtaMachine(derate_mta(spec, active),
                                  slices_per_phase=slices_per_phase,
                                  engine=engine))


def run_faulted_conventional(spec: MachineSpec, job: Job,
                             plan: FaultPlan, *,
                             slices_per_phase: int = 16,
                             engine: Optional[str] = None
                             ) -> FaultedRun:
    """Run ``job`` on a conventional machine under ``plan``'s faults."""
    schedule = plan.schedule(job.name, len(job.steps), spec.name)
    applied = tuple(f for f in schedule if f.kind in CONVENTIONAL_KINDS)
    return _run_segments(
        job, schedule, applied, spec.name,
        lambda active: ConventionalMachine(
            derate_conventional(spec, active),
            slices_per_phase=slices_per_phase,
            engine=engine))
