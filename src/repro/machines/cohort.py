"""Cohort hooks of :class:`~repro.machines.ConventionalMachine`.

The family's half of the fast path in :mod:`repro.machines.driver`:

* A serial step is a single job alone on each server, so its timeline
  is closed-form: the same ``t += demand / rate`` chain the DES event
  arithmetic performs, reproduced operation for operation.

* An eligible region (all thread programs structurally identical; see
  :mod:`repro.workload.cohort`) compiles each phase to segments on two
  servers -- the cpu pool and the memory bus -- which the driver runs
  on a :class:`~repro.des.batch.CohortEngine`.

Regions are routed back to the DES path when thread programs are
heterogeneous, or when ``exploit_fine_grained`` is set and a phase
carries internal parallelism (the sw-thread spawning path interleaves
parent-side submissions that the cohort compiler does not model).
"""

from __future__ import annotations

from typing import Union

from repro.des.batch import SLEEP, SRV, serve_alone
from repro.machines.locality import miss_traffic_bytes
from repro.workload.cohort import region_cohort_signature, region_phases
from repro.workload.phase import Phase
from repro.workload.task import ParallelRegion, WorkQueueRegion

__all__ = ["region_eligible", "run_serial_phase", "compile_phase"]

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


def run_serial_phase(machine, phase: Phase, t: float, servers) -> float:
    """Closed form of ``ConventionalMachine._run_phase`` on idle servers.

    Bit-identical to the DES event chain for a lone thread: each slice
    completes at ``t + demand / min(cap, capacity)``.
    """
    spec = machine.spec
    cpu, bus = servers
    clock = spec.core.clock_hz
    cap = clock
    if phase.parallelism > 1 and machine.exploit_fine_grained:
        sw = spec.costs_for("sw")
        create = phase.parallelism * sw.create_cycles
        if create > 0:
            t = serve_alone(cpu, create, clock, t)
        cap = min(phase.parallelism, spec.n_cpus) * clock
    slices = machine.slices_per_phase
    cc = spec.core.compute_cycles(phase.ops) / slices
    tb = miss_traffic_bytes(phase, spec.cache) / slices
    bus_cap = spec.per_cpu_mem_bandwidth
    for _ in range(slices):
        if cc > 0:
            t = serve_alone(cpu, cc, cap, t)
        if tb > 0:
            t = serve_alone(bus, tb, bus_cap, t)
    if phase.serial_cycles > 0:
        t = t + phase.serial_cycles / clock
    return t


def compile_phase(machine, phase: Phase, segs: list) -> None:
    """Append ``ConventionalMachine._run_phase``'s slices as segments."""
    spec = machine.spec
    clock = spec.core.clock_hz
    slices = machine.slices_per_phase
    cc = spec.core.compute_cycles(phase.ops) / slices
    tb = miss_traffic_bytes(phase, spec.cache) / slices
    bus_cap = spec.per_cpu_mem_bandwidth
    per_slice = []
    if cc > 0:
        per_slice.append((SRV, CPU, cc, clock))
    if tb > 0:
        per_slice.append((SRV, BUS, tb, bus_cap))
    if per_slice:
        # every slice is the same immutable segment sequence
        segs.extend(per_slice * slices)
    if phase.serial_cycles > 0:
        segs.append((SLEEP, phase.serial_cycles / clock))
