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

Serial steps and homogeneous regions (see
:mod:`repro.workload.cohort`) take a vectorized fast path by default
-- the same timeline computed without per-thread DES processes.  Set
``REPRO_NO_COHORT=1`` (or pass ``use_cohort=False``) to force
everything through the DES path; the two agree on simulated seconds to
well within 1e-9 relative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.des import (
    AllOf,
    FairShareServer,
    Simulator,
    SimLock,
    Store,
)
from repro.obs.metrics import (
    MachineMetrics,
    hist_fields,
    lock_summary_from_resources,
    merge_lock_summaries,
)
from repro.obs.trace import active_tracer
from repro.workload.describe import step_label
from repro.workload.phase import Phase
from repro.workload.task import (
    Compute,
    Critical,
    Job,
    ParallelRegion,
    SerialStep,
    ThreadProgram,
    WorkQueueRegion,
)

from repro.workload.cohort import cohort_enabled

from repro.machines import cohort
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


class ConventionalMachine:
    """DES performance model of a cache-based shared-memory machine."""

    def __init__(self, spec: MachineSpec, slices_per_phase: int = 16,
                 exploit_fine_grained: bool = False,
                 use_cohort: bool | None = None):
        if slices_per_phase < 1:
            raise ValueError("slices_per_phase must be >= 1")
        self.spec = spec
        self.slices_per_phase = slices_per_phase
        self.exploit_fine_grained = exploit_fine_grained
        self.use_cohort = (cohort_enabled() if use_cohort is None
                           else bool(use_cohort))

    # ------------------------------------------------------------------
    def run(self, job: Job) -> RunResult:
        spec = self.spec
        sim = Simulator()
        tracer = active_tracer()
        metrics = MachineMetrics(tracer)
        if tracer is not None:
            tracer.begin_run(f"{spec.name}/{job.name}")
            sim.trace = tracer
        clock = spec.core.clock_hz
        cpu = FairShareServer(
            sim, capacity=spec.n_cpus * clock, per_customer_cap=clock,
            name="cpu-pool")
        bus = FairShareServer(
            sim, capacity=spec.mem.bandwidth_bytes_per_s,
            per_customer_cap=spec.per_cpu_mem_bandwidth, name="bus")
        locks: dict[str, SimLock] = {}
        peak = [1]
        # cohort-vs-DES coverage and fast-path lock statistics
        acct = {"cohort_regions": 0, "des_regions": 0,
                "cohort_serial_steps": 0, "des_serial_steps": 0,
                "closed_form_regions": 0, "drained_grants": 0,
                "stepped_grants": 0, "engine_events": 0,
                "locks": {"waits": 0, "wait_time": 0.0, "convoy_max": 0,
                          "hist": {}}}

        main = sim.process(
            self._job_body(sim, job, cpu, bus, locks, peak, acct,
                           metrics),
            name=job.name)
        sim.run_all(main)
        if tracer is not None:
            tracer.end_run(sim.now)

        total = sim.now
        lock_sum = merge_lock_summaries(
            lock_summary_from_resources(locks.values()), acct["locks"])
        stats = {
            "cpu_busy_time": cpu.busy_time,
            "bus_busy_time": bus.busy_time,
            "lock_acquisitions": float(lock_sum["waits"]),
            "cohort_regions": float(acct["cohort_regions"]),
            "des_regions": float(acct["des_regions"]),
            "cohort_serial_steps": float(acct["cohort_serial_steps"]),
            "des_serial_steps": float(acct["des_serial_steps"]),
            "closed_form_regions": float(acct["closed_form_regions"]),
            "cohort_drained_grants": float(acct["drained_grants"]),
            "cohort_stepped_grants": float(acct["stepped_grants"]),
            "cohort_engine_events": float(acct["engine_events"]),
            "lock_wait_time": lock_sum["wait_time"],
            "lock_convoy_max": float(lock_sum["convoy_max"]),
        }
        stats.update(metrics.rollup())
        stats.update(hist_fields(lock_sum["hist"]))
        return RunResult(
            machine=spec.name,
            job=job.name,
            seconds=total,
            cpu_utilization=cpu.utilization(total) if total > 0 else 0.0,
            bus_utilization=bus.utilization(total) if total > 0 else 0.0,
            lock_wait_seconds=lock_sum["wait_time"],
            n_threads_peak=peak[0],
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _lock(self, sim: Simulator, locks: dict[str, SimLock],
              name: str) -> SimLock:
        if name not in locks:
            locks[name] = SimLock(sim, name=name)
        return locks[name]

    def _job_body(self, sim, job, cpu, bus, locks, peak, acct, metrics):
        # ``cursor`` runs ahead of sim.now through fast-path steps; one
        # timeout folds the accumulated span back into the DES clock
        # before (and after) any step that needs real events.
        spec = self.spec
        cursor = sim.now
        for i, step in enumerate(job.steps):
            label = step_label(step, i)
            if isinstance(step, SerialStep):
                if self.use_cohort:
                    t0 = cursor
                    cursor = cohort.run_serial_phase(
                        self, step.phase, cursor, cpu, bus)
                    acct["cohort_serial_steps"] += 1
                    metrics.region("serial", "cohort", label, t0, cursor)
                    continue
                acct["des_serial_steps"] += 1
                if cursor > sim.now:
                    yield sim.timeout(cursor - sim.now)
                t0 = sim.now
                yield from self._run_phase(sim, step.phase, cpu, bus)
                cursor = sim.now
                metrics.region("serial", "des", label, t0, cursor)
            elif isinstance(step, ParallelRegion):
                peak[0] = max(peak[0], step.n_threads)
                if self.use_cohort and cohort.region_eligible(self, step):
                    t0 = cursor
                    cursor, lock_sum, est = cohort.run_region(
                        self, step, cursor, cpu, bus)
                    acct["cohort_regions"] += 1
                    acct["closed_form_regions"] += est["closed_form"]
                    acct["drained_grants"] += est["drained_grants"]
                    acct["stepped_grants"] += est["stepped_grants"]
                    acct["engine_events"] += est["events"]
                    merge_lock_summaries(acct["locks"], lock_sum)
                    metrics.region("parallel", "cohort", label, t0,
                                   cursor, step.n_threads)
                    continue
                acct["des_regions"] += 1
                if cursor > sim.now:
                    yield sim.timeout(cursor - sim.now)
                t0 = sim.now
                costs = spec.costs_for(step.thread_kind)
                # the parent creates every thread before any runs
                yield cpu.submit(costs.create_cycles * step.n_threads,
                                 cap=spec.core.clock_hz)
                procs = [
                    sim.process(
                        self._thread_body(sim, th, cpu, bus, locks, costs),
                        name=th.name)
                    for th in step.threads
                ]
                yield AllOf(sim, procs)
                cursor = sim.now
                metrics.region("parallel", "des", label, t0, cursor,
                               step.n_threads)
            elif isinstance(step, WorkQueueRegion):
                peak[0] = max(peak[0], step.n_threads)
                if self.use_cohort and cohort.region_eligible(self, step):
                    t0 = cursor
                    cursor, lock_sum, est = cohort.run_region(
                        self, step, cursor, cpu, bus)
                    acct["cohort_regions"] += 1
                    acct["closed_form_regions"] += est["closed_form"]
                    acct["drained_grants"] += est["drained_grants"]
                    acct["stepped_grants"] += est["stepped_grants"]
                    acct["engine_events"] += est["events"]
                    merge_lock_summaries(acct["locks"], lock_sum)
                    metrics.region("parallel", "cohort", label, t0,
                                   cursor, step.n_threads)
                    continue
                acct["des_regions"] += 1
                if cursor > sim.now:
                    yield sim.timeout(cursor - sim.now)
                t0 = sim.now
                costs = spec.costs_for(step.thread_kind)
                yield cpu.submit(costs.create_cycles * step.n_threads,
                                 cap=spec.core.clock_hz)
                queue = Store(sim, name="work-queue")
                for item in step.items:
                    queue.put(item)
                procs = [
                    sim.process(
                        self._worker_body(sim, queue, cpu, bus, locks,
                                          costs),
                        name=f"worker-{i}")
                    for i in range(step.n_threads)
                ]
                yield AllOf(sim, procs)
                cursor = sim.now
                metrics.region("parallel", "des", label, t0, cursor,
                               step.n_threads)
            else:  # pragma: no cover - Job validates step types
                raise TypeError(f"unknown job step {step!r}")
        if cursor > sim.now:
            yield sim.timeout(cursor - sim.now)

    def _thread_body(self, sim, program: ThreadProgram, cpu, bus, locks,
                     costs):
        for item in program.items:
            yield from self._run_item(sim, item, cpu, bus, locks, costs)

    def _worker_body(self, sim, queue: Store, cpu, bus, locks, costs):
        clock = self.spec.core.clock_hz
        while True:
            ok, item = queue.try_get()
            if not ok:
                return
            # popping the shared queue is a synchronized operation
            yield cpu.submit(costs.sync_cycles, cap=clock)
            for it in item.items:
                yield from self._run_item(sim, it, cpu, bus, locks, costs)

    def _run_item(self, sim, item, cpu, bus, locks, costs):
        if isinstance(item, Compute):
            yield from self._run_phase(sim, item.phase, cpu, bus)
        elif isinstance(item, Critical):
            lock = self._lock(sim, locks, item.lock)
            grant = yield lock.acquire()
            try:
                yield cpu.submit(costs.sync_cycles,
                                 cap=self.spec.core.clock_hz)
                yield from self._run_phase(sim, item.phase, cpu, bus)
            finally:
                lock.release(grant)
        else:  # pragma: no cover - ThreadProgram validates item types
            raise TypeError(f"unknown thread item {item!r}")

    def _run_phase(self, sim, phase: Phase, cpu, bus):
        spec = self.spec
        clock = spec.core.clock_hz
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
