"""The one job driver every machine family runs on.

A family (:class:`~repro.machines.ConventionalMachine`,
:class:`~repro.mta.MtaMachine`) differs from another only in its
servers and its phase model.  :class:`MachineDriver` owns everything
else: the simulator and tracer set-up, the step loop, the DES thread
and work-queue worker bodies with their locks, the cohort region
runner with its segment compiler, and the engine accounting behind the
shared ``RunResult.stats`` keys.

Engines.  Serial steps and homogeneous regions (see
:mod:`repro.workload.cohort`) take the vectorized cohort fast path by
default -- the same timeline computed without per-thread DES
processes.  Both compile to the segment form of :mod:`repro.des.batch`
with the family's ``compile_phase``.  A serial step is a lone job on
idle servers, so :func:`~repro.des.batch.replay_alone` replays its
segments in closed form.  An eligible region compiles each thread
program (or each work-queue item) and runs on one
:class:`~repro.des.batch.CohortEngine` over the family's servers plus
the region's FIFO locks.  Everything else runs as DES processes.

Engine setting.  One setting picks the engine, resolved once per
machine by :func:`repro.workload.cohort.resolve_engine`: the
``engine=`` keyword, else ``REPRO_ENGINE``.  ``closed`` (the default)
is the cohort fast path above with its closed-form layers;
``stepped`` keeps the cohort engine but event-steps every thread (see
:mod:`repro.des.batch`); ``des`` forces every step through the DES
path.  All three agree on simulated seconds to well within 1e-9
relative (:func:`repro.harness.bench.parity_problem`).

A family supplies, on top of ``spec`` and ``slices_per_phase``:

* ``_servers(sim)``: its live servers, in cohort server-id order, the
  parent's issue server first;
* ``_result(...)``: its result dataclass, with the family's leading
  ``stats`` keys before the shared ones;
* ``region_eligible(step)``: whether the cohort engine may run a region;
* ``_create(server, cycles)``: the parent's DES thread-creation event
  (or None), and ``clock``, the rate it retires creation cycles at;
* ``sync_cap`` and ``SYNC_SID``: the cap and cohort server id of one
  synchronized access (a lock acquire or a queue pop);
* ``_home(i)``: thread ``i``'s home server id;
* ``_run_phase`` (DES, the oracle) and ``compile_phase`` (segments):
  its phase model, two ways.
"""

from __future__ import annotations

from collections import deque
from typing import Union

from repro.des import AllOf, SimLock, Simulator, Store
from repro.des.batch import ACQ, REL, SRV, CohortEngine, replay_alone
from repro.obs.metrics import (
    MachineMetrics,
    hist_fields,
    lock_summary_from_engine,
    lock_summary_from_resources,
    merge_lock_summaries,
)
from repro.obs.trace import active_tracer
from repro.workload.cohort import resolve_engine
from repro.workload.describe import step_label
from repro.workload.task import (
    Compute,
    Critical,
    Job,
    ParallelRegion,
    SerialStep,
    WorkQueueRegion,
)

__all__ = ["MachineDriver"]

#: the engine counters every result's ``stats`` carries, in key order
_ACCT_KEYS = ("cohort_regions", "des_regions", "cohort_serial_steps",
              "des_serial_steps", "closed_form_regions",
              "cohort_drained_grants", "cohort_stepped_grants",
              "cohort_engine_events")
#: ``CohortEngine.stats`` key -> the counter it adds to
_ENGINE_KEYS = (("closed_form", "closed_form_regions"),
                ("drained_grants", "cohort_drained_grants"),
                ("stepped_grants", "cohort_stepped_grants"),
                ("events", "cohort_engine_events"))


class MachineDriver:
    """Runs a :class:`~repro.workload.Job` on a family's servers."""

    def __init__(self, spec, slices_per_phase: int, engine: str | None,
                 use_cohort: bool | None):
        if slices_per_phase < 1:
            raise ValueError("slices_per_phase must be >= 1")
        self.spec = spec
        self.slices_per_phase = slices_per_phase
        # ``use_cohort=False`` is perfbench's DES-oracle spelling of
        # ``engine="des"``
        self.engine = resolve_engine("des" if use_cohort is False
                                     else engine)

    def _home(self, i: int) -> int:
        """Thread ``i``'s home server id (the MTA pins round-robin)."""
        return 0

    # ------------------------------------------------------------------
    def run(self, job: Job):
        sim = Simulator()
        tracer = active_tracer()
        metrics = MachineMetrics(tracer)
        if tracer is not None:
            tracer.begin_run(f"{self.spec.name}/{job.name}")
            sim.trace = tracer
        servers = self._servers(sim)
        locks: dict[str, SimLock] = {}
        peak = [1]
        # cohort-vs-DES coverage and fast-path lock statistics
        acct = dict.fromkeys(_ACCT_KEYS, 0)
        cohort_locks = {"waits": 0, "wait_time": 0.0, "convoy_max": 0,
                        "hist": {}}

        main = sim.process(
            self._job_body(sim, job, servers, locks, peak, acct,
                           cohort_locks, metrics),
            name=job.name)
        sim.run_all(main)
        if tracer is not None:
            tracer.end_run(sim.now)

        lock_sum = merge_lock_summaries(
            lock_summary_from_resources(locks.values()), cohort_locks)
        shared = {key: float(n) for key, n in acct.items()}
        shared["lock_wait_time"] = lock_sum["wait_time"]
        shared["lock_convoy_max"] = float(lock_sum["convoy_max"])
        shared.update(metrics.rollup())
        shared.update(hist_fields(lock_sum["hist"]))
        return self._result(job, servers, sim.now, lock_sum, peak[0],
                            shared)

    def _job_body(self, sim, job, servers, locks, peak, acct,
                  cohort_locks, metrics):
        # ``cursor`` runs ahead of sim.now through fast-path steps; one
        # timeout folds the accumulated span back into the DES clock
        # around any step that needs real events.
        cursor = sim.now
        fast = self.engine != "des"
        for i, step in enumerate(job.steps):
            label = step_label(step, i)
            serial = isinstance(step, SerialStep)
            if serial:
                kind, n = "serial", 1
            elif isinstance(step, (ParallelRegion, WorkQueueRegion)):
                kind, n = "parallel", step.n_threads
                peak[0] = max(peak[0], n)
            else:  # pragma: no cover - Job validates step types
                raise TypeError(f"unknown job step {step!r}")
            if fast and (serial or self.region_eligible(step)):
                t0 = cursor
                if serial:
                    segs = []
                    self.compile_phase(step.phase, segs)
                    cursor = replay_alone(segs, cursor, servers)
                    acct["cohort_serial_steps"] += 1
                else:
                    cursor = self._run_region(step, cursor, servers, acct,
                                              cohort_locks)
                    acct["cohort_regions"] += 1
                metrics.region(kind, "cohort", label, t0, cursor, n)
                continue
            acct["des_serial_steps" if serial else "des_regions"] += 1
            if cursor > sim.now:
                yield sim.timeout(cursor - sim.now)
            t0 = sim.now
            if serial:
                yield from self._run_phase(sim, step.phase, servers, 0)
            else:
                yield from self._run_threads(sim, step, servers, locks)
            cursor = sim.now
            metrics.region(kind, "des", label, t0, cursor, n)
        if cursor > sim.now:
            yield sim.timeout(cursor - sim.now)

    # ------------------------------------------------------------------
    # DES path
    # ------------------------------------------------------------------
    def _run_threads(self, sim, step, servers, locks):
        costs = self.spec.costs_for(step.thread_kind)
        # the parent creates every thread before any runs
        ev = self._create(servers[0], costs.create_cycles * step.n_threads)
        if ev is not None:
            yield ev
        if isinstance(step, ParallelRegion):
            procs = [
                sim.process(
                    self._thread_body(sim, th.items, servers, self._home(i),
                                      locks, costs),
                    name=th.name)
                for i, th in enumerate(step.threads)
            ]
        else:
            queue = Store(sim, name="work-queue")
            for item in step.items:
                queue.put(item)
            procs = [
                sim.process(
                    self._worker_body(sim, queue, servers, self._home(i),
                                      locks, costs),
                    name=f"worker-{i}")
                for i in range(step.n_threads)
            ]
        yield AllOf(sim, procs)

    def _worker_body(self, sim, queue: Store, servers, home, locks, costs):
        while True:
            ok, item = queue.try_get()
            if not ok:
                return
            # popping the shared queue is a synchronized access
            yield servers[home].submit(costs.sync_cycles, cap=self.sync_cap)
            yield from self._thread_body(sim, item.items, servers, home,
                                         locks, costs)

    def _thread_body(self, sim, items, servers, home, locks, costs):
        for item in items:
            if isinstance(item, Compute):
                yield from self._run_phase(sim, item.phase, servers, home)
            elif isinstance(item, Critical):
                lock = locks.get(item.lock)
                if lock is None:
                    lock = locks[item.lock] = SimLock(sim, name=item.lock)
                grant = yield lock.acquire()
                try:
                    yield servers[home].submit(costs.sync_cycles,
                                               cap=self.sync_cap)
                    yield from self._run_phase(sim, item.phase, servers,
                                               home)
                finally:
                    lock.release(grant)
            else:  # pragma: no cover - ThreadProgram validates item types
                raise TypeError(f"unknown thread item {item!r}")

    # ------------------------------------------------------------------
    # cohort path
    # ------------------------------------------------------------------
    def _run_region(self, step: Union[ParallelRegion, WorkQueueRegion],
                    t: float, servers, acct, cohort_locks) -> float:
        """Run an eligible region on a :class:`CohortEngine`; returns
        its end time.

        Credits the live servers' busy-time and served-work statistics,
        so the final utilizations match the DES path, and adds the
        engine's choice accounting and lock summary to the run's.
        """
        costs = self.spec.costs_for(step.thread_kind)
        # the parent creates every thread before any runs
        t = replay_alone(
            [(SRV, 0, costs.create_cycles * step.n_threads, self.clock)],
            t, servers)
        sync = costs.sync_cycles
        sync_seg = ([(SRV, self.SYNC_SID, sync, self.sync_cap)]
                    if sync > 0 else [])

        queue = None
        if isinstance(step, ParallelRegion):
            programs = [self._compile_items(th.items, sync_seg, [])
                        for th in step.threads]
        else:
            # popping the shared queue is a synchronized access
            queue = deque(self._compile_items(item.items, sync_seg, sync_seg)
                          for item in step.items)
            programs = [[] for _ in range(step.n_threads)]

        eng = CohortEngine(
            t, [s.capacity for s in servers], programs,
            own_sids=[self._home(i) for i in range(step.n_threads)],
            queue=queue, closed_form=self.engine == "closed")
        end = eng.run()
        for server, batch in zip(servers, eng.servers):
            server.busy_time += batch.busy_time
            server.total_served += batch.total_served
        for src, dst in _ENGINE_KEYS:
            acct[dst] += eng.stats[src]
        merge_lock_summaries(cohort_locks, lock_summary_from_engine(eng))
        return end

    def _compile_items(self, items, sync_seg: list, prefix: list) -> list:
        segs = list(prefix)
        for item in items:
            if isinstance(item, Critical):
                segs.append((ACQ, item.lock))
                segs.extend(sync_seg)
                self.compile_phase(item.phase, segs)
                segs.append((REL, item.lock))
            else:
                self.compile_phase(item.phase, segs)
        return segs
