"""Execution-driven performance simulation of conventional SMPs.

A :class:`ConventionalMachine` turns a :class:`~repro.workload.Job`
into DES processes:

* Compute demand (cycles) is served by a processor pool modelled as a
  fair-share server: capacity ``n_cpus * clock``, per-thread cap one
  CPU's clock.  One thread per CPU runs uncontended; more threads than
  CPUs time-slice.
* Cache-miss traffic (bytes, from the macro locality model) is served
  by a shared bus: capacity = sustainable bandwidth, per-thread cap =
  what one in-order CPU can pull with a single outstanding miss.
  Memory-bound programs therefore stop scaling when the aggregate
  demand hits the bus -- the effect behind Tables 9 and 10.
* Compute and memory alternate in slices within each phase (in-order
  CPUs overlap little), so contention interleaves realistically.
* Locks are DES mutexes; acquiring one costs the platform's
  synchronization cycles.  Thread creation bills the parent the
  platform's (large) creation cost per thread.

Phases with internal ``parallelism > 1`` are *not* exploited by
default -- a conventional machine has no cheap fine-grained threads.
Passing ``exploit_fine_grained=True`` makes the machine spawn software
threads for them, paying the creation cost per strand; this exists to
reproduce the paper's observation that inner-loop parallelization is
not practical on these platforms.

The step loop, the engines and their escape hatches live in
:mod:`repro.machines.driver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.des import FairShareServer
from repro.workload.phase import Phase

from repro.machines import cohort
from repro.machines.driver import MachineDriver
from repro.machines.locality import miss_traffic_bytes
from repro.machines.spec import MachineSpec


@dataclass(frozen=True)
class RunResult:
    """Outcome of simulating one job on one machine."""

    machine: str
    job: str
    seconds: float
    cpu_utilization: float
    bus_utilization: float
    lock_wait_seconds: float
    n_threads_peak: int
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def minutes(self) -> float:
        return self.seconds / 60.0


class ConventionalMachine(MachineDriver):
    """DES performance model of a cache-based shared-memory machine."""

    #: every synchronized access runs on the cpu pool
    SYNC_SID = cohort.CPU

    # the family's cohort hooks: functions of the machine, bound here
    region_eligible = cohort.region_eligible
    compile_phase = cohort.compile_phase

    def __init__(self, spec: MachineSpec, slices_per_phase: int = 16,
                 exploit_fine_grained: bool = False,
                 engine: str | None = None,
                 use_cohort: bool | None = None):
        super().__init__(spec, slices_per_phase, engine, use_cohort)
        self.exploit_fine_grained = exploit_fine_grained
        self.clock = self.sync_cap = spec.core.clock_hz

    def _servers(self, sim) -> list:
        spec = self.spec
        cpu = FairShareServer(
            sim, capacity=spec.n_cpus * self.clock,
            per_customer_cap=self.clock, name="cpu-pool")
        bus = FairShareServer(
            sim, capacity=spec.mem.bandwidth_bytes_per_s,
            per_customer_cap=spec.per_cpu_mem_bandwidth, name="bus")
        return [cpu, bus]

    def _result(self, job, servers, total, lock_sum, peak,
                shared) -> RunResult:
        cpu, bus = servers
        return RunResult(
            machine=self.spec.name,
            job=job.name,
            seconds=total,
            cpu_utilization=cpu.utilization(total) if total > 0 else 0.0,
            bus_utilization=bus.utilization(total) if total > 0 else 0.0,
            lock_wait_seconds=lock_sum["wait_time"],
            n_threads_peak=peak,
            stats={"cpu_busy_time": cpu.busy_time,
                   "bus_busy_time": bus.busy_time,
                   "lock_acquisitions": float(lock_sum["waits"]),
                   **shared},
        )

    def _create(self, cpu, cycles: float):
        # the conventional parent enters the cpu pool even for 0 cycles
        return cpu.submit(cycles, cap=self.clock)

    def _run_phase(self, sim, phase: Phase, servers, home):
        spec = self.spec
        cpu, bus = servers
        clock = self.clock
        compute_cycles = spec.core.compute_cycles(phase.ops)
        cap = clock

        if phase.parallelism > 1 and self.exploit_fine_grained:
            # Spawn software threads for the phase's internal strands:
            # the work can spread over the CPUs, but the parent pays the
            # creation cost per strand, serially, before any strand runs
            # -- the fine-grained-on-SMP disaster.
            sw = spec.costs_for("sw")
            yield cpu.submit(phase.parallelism * sw.create_cycles,
                             cap=clock)
            cap = min(phase.parallelism, spec.n_cpus) * clock

        traffic = miss_traffic_bytes(phase, spec.cache)
        slices = self.slices_per_phase
        cc = compute_cycles / slices
        tb = traffic / slices
        for _ in range(slices):
            if cc > 0:
                yield cpu.submit(cc, cap=cap)
            if tb > 0:
                yield bus.submit(tb)
        if phase.serial_cycles > 0:
            yield sim.timeout(phase.serial_cycles / clock)
