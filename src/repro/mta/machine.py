"""Macro performance model of the Tera MTA.

Executes :class:`~repro.workload.Job` descriptions on DES servers:

* **Issue slots.**  One fair-share server per processor with aggregate
  capacity of one instruction per cycle.  A thread executing a phase
  with memory fraction *f* is capped at ``clock / (21 + f * stall)``
  instructions per second -- one stream's best case -- so a lone thread
  crawls (the paper's 14x-slower-than-Alpha sequential runs) while
  dozens of threads saturate the processor (Table 6's chunk sweep).

* **Network.**  A single fair-share server for memory references; its
  capacity scales sublinearly with processors (prototype network).
  Memory-heavy phases hit this wall -- the reason fine-grained Terrain
  Masking speeds up only 1.4x on two processors (Table 11) while the
  compute-heavy Threat Analysis reaches 1.8x (Table 5).

* **Fine-grained phases.**  A phase with ``parallelism = p`` may occupy
  up to ``p`` streams; its issue demand spreads over *all* processors
  (the Tera runtime's virtual processors), so inner-loop parallelism
  scales past one processor without restructuring -- exactly the
  programming-model point the paper makes.

* Unhidable per-phase critical-path latency (``serial_cycles``) and
  full/empty-style lock costs (1 cycle) are also modelled.

Instruction counts come from abstract op counts divided by the LIW
packing factor (``ops_per_instruction``).

Each thread is pinned round-robin to a home processor.  The step
loop, the engines and their escape hatches live in
:mod:`repro.machines.driver`; the MTA's cohort hooks are in
:mod:`repro.mta.cohort`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.des import AllOf, FairShareServer
from repro.machines.driver import MachineDriver
from repro.workload.phase import Phase

from repro.mta import cohort
from repro.mta.spec import MtaSpec


@dataclass(frozen=True)
class MtaRunResult:
    """Outcome of simulating one job on the MTA."""

    machine: str
    job: str
    seconds: float
    issue_utilization: float      # mean across processors
    network_utilization: float
    lock_wait_seconds: float
    n_threads_peak: int
    stats: dict[str, float] = field(default_factory=dict)


class MtaMachine(MachineDriver):
    """DES performance model of the Tera MTA."""

    #: a synchronized access runs on the thread's own processor
    SYNC_SID = None

    # the family's cohort hooks: functions of the machine, bound here
    region_eligible = cohort.region_eligible
    compile_phase = cohort.compile_phase

    def __init__(self, spec: MtaSpec, slices_per_phase: int = 8,
                 engine: str | None = None,
                 use_cohort: bool | None = None):
        super().__init__(spec, slices_per_phase, engine, use_cohort)
        # creation is not memory-bound: the creating stream retires it
        # at full pipeline rate; a full/empty access is one memory op
        self.clock = spec.clock_hz
        self.sync_cap = spec.stream_issue_rate(1.0)

    def _home(self, i: int) -> int:
        return i % self.spec.n_processors

    def _servers(self, sim) -> list:
        spec = self.spec
        issue = [
            FairShareServer(sim, capacity=spec.clock_hz,
                            name=f"issue-p{p}")
            for p in range(spec.n_processors)
        ]
        network = FairShareServer(
            sim, capacity=spec.network_capacity_words_per_s(),
            name="network")
        return issue + [network]

    def _result(self, job, servers, total, lock_sum, peak,
                shared) -> MtaRunResult:
        issue, network = servers[:-1], servers[-1]
        issue_util = (sum(s.utilization(total) for s in issue) / len(issue)
                      if total > 0 else 0.0)
        return MtaRunResult(
            machine=self.spec.name,
            job=job.name,
            seconds=total,
            issue_utilization=issue_util,
            network_utilization=(network.utilization(total)
                                 if total > 0 else 0.0),
            lock_wait_seconds=lock_sum["wait_time"],
            n_threads_peak=peak,
            stats={"network_busy_time": network.busy_time,
                   "issue_busy_time_total": float(
                       sum(s.busy_time for s in issue)),
                   **shared},
        )

    def _create(self, issue0, cycles: float):
        # a single stream issues the create instructions
        return issue0.submit(cycles, cap=self.clock) if cycles > 0 else None

    def _run_phase(self, sim, phase: Phase, servers, home):
        spec = self.spec
        network = servers[-1]
        ops = phase.ops
        words = ops.mem_ops
        # LIW packing: up to `ops_per_instruction` ops per bundle, but a
        # bundle has a single memory slot, so the instruction count can
        # never drop below the number of memory references.
        instr = max(ops.total / spec.ops_per_instruction, words)
        if instr <= 0 and phase.serial_cycles <= 0:
            return
        memf = words / instr if instr > 0 else 0.0
        stream_rate = spec.stream_issue_rate(memf)
        p = phase.parallelism
        slices = self.slices_per_phase

        if p <= 1:
            # one stream on this thread's processor
            cap = stream_rate
            per_slice_instr = instr / slices
            per_slice_words = words / slices
            for _ in range(slices):
                events = []
                if per_slice_instr > 0:
                    events.append(servers[home].submit(per_slice_instr,
                                                       cap=cap))
                if per_slice_words > 0:
                    events.append(network.submit(per_slice_words))
                if events:
                    yield AllOf(sim, events)
        else:
            # fine-grained phase: spread over all processors
            n_proc = spec.n_processors
            per_proc_streams = min(p / n_proc, spec.streams_per_processor)
            cap = per_proc_streams * stream_rate
            per_slice_instr = instr / (slices * n_proc)
            per_slice_words = words / slices
            for _ in range(slices):
                events = [
                    servers[q].submit(per_slice_instr, cap=cap)
                    for q in range(n_proc)
                    if per_slice_instr > 0
                ]
                if per_slice_words > 0:
                    events.append(network.submit(per_slice_words))
                if events:
                    yield AllOf(sim, events)

        if phase.serial_cycles > 0:
            yield sim.timeout(phase.serial_cycles / spec.clock_hz)
