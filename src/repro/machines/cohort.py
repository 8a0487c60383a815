"""Cohort hooks of :class:`~repro.machines.ConventionalMachine`.

The family's half of the fast path in :mod:`repro.machines.driver`.
Its phase model has two implementations: the DES oracle
``ConventionalMachine._run_phase`` and :func:`compile_phase` here, which
emits the same phase as segments on two servers -- the cpu pool and
the memory bus.  The driver replays a serial step's segments in closed
form (:func:`~repro.des.batch.replay_alone`; a lone job on idle
servers), and runs an eligible region (all thread programs
structurally identical; see :mod:`repro.workload.cohort`) on a
:class:`~repro.des.batch.CohortEngine`.

Regions are routed back to the DES path when thread programs are
heterogeneous, or when ``exploit_fine_grained`` is set and a phase
carries internal parallelism: the compiled sw-thread creation path is
checked against DES for a lone thread only, so only serial steps take
it.
"""

from __future__ import annotations

from typing import Union

from repro.des.batch import SLEEP, SRV
from repro.machines.locality import miss_traffic_bytes
from repro.workload.cohort import region_cohort_signature, region_phases
from repro.workload.phase import Phase
from repro.workload.task import ParallelRegion, WorkQueueRegion

__all__ = ["region_eligible", "compile_phase"]

#: server ids used by the compiled segments
CPU = 0
BUS = 1


def region_eligible(machine,
                    step: Union[ParallelRegion, WorkQueueRegion]) -> bool:
    """Whether the cohort engine can replay this region exactly."""
    if isinstance(step, ParallelRegion):
        if region_cohort_signature(step) is None:
            return False
    elif not isinstance(step, WorkQueueRegion):
        return False
    if machine.exploit_fine_grained:
        # the sw-thread path submits parent-side creation jobs inside
        # _run_phase; keep those regions on the DES path
        if any(p.parallelism > 1 for p in region_phases(step)):
            return False
    return True


def compile_phase(machine, phase: Phase, segs: list) -> None:
    """Append ``ConventionalMachine._run_phase`` as segments."""
    spec = machine.spec
    clock = spec.core.clock_hz
    cap = clock
    if phase.parallelism > 1 and machine.exploit_fine_grained:
        # the parent pays each strand's sw-thread creation first; the
        # strands then spread over up to min(p, n_cpus) CPUs
        sw = spec.costs_for("sw")
        segs.append((SRV, CPU, phase.parallelism * sw.create_cycles,
                     clock))
        cap = min(phase.parallelism, spec.n_cpus) * clock
    slices = machine.slices_per_phase
    cc = spec.core.compute_cycles(phase.ops) / slices
    tb = miss_traffic_bytes(phase, spec.cache) / slices
    bus_cap = spec.per_cpu_mem_bandwidth
    per_slice = []
    if cc > 0:
        per_slice.append((SRV, CPU, cc, cap))
    if tb > 0:
        per_slice.append((SRV, BUS, tb, bus_cap))
    if per_slice:
        # every slice is the same immutable segment sequence
        segs.extend(per_slice * slices)
    if phase.serial_cycles > 0:
        segs.append((SLEEP, phase.serial_cycles / clock))
