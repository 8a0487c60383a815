"""Parallel experiment execution at simulation-cell granularity.

The registry's experiments are independent of each other (they share
only the read-only :class:`BenchmarkData` kernels and the simulation
results), so ``python -m repro all`` / ``report`` can fan their work
out over a :class:`~concurrent.futures.ProcessPoolExecutor`.  Whole
experiments are a poor unit of parallel work: a handful of simulations
dominate the registry's wall clock and many of them are shared between
experiments.  So ``-j N`` proceeds at simulation-cell granularity:

1. **plan** (in the scheduling process) -- run every experiment
   against a :class:`_PlanningData` probe whose ``_simulate`` records
   each simulation *cell* (machine spec x job recipe x scales x seed
   universe) instead of running it.  Planning doubles as warm-up: it
   builds every kernel and job into the caller's ``data`` memos, and
   the pool is forked *afterwards*, so workers inherit the warm state
   copy-on-write instead of re-running kernels per process.
2. **cell** (workers) -- execute one deduplicated simulation cell
   (largest first, across all experiments) and send its record back
   over the result pipe; the scheduling process memoizes it in
   ``data``.  Cells already in the persistent cache are never
   submitted at all.
3. **replay** (the scheduling process) -- run each experiment for real
   on ``data`` the moment its last outstanding cell lands.  Every cell
   it asks for is then a memo or cache hit, and the pool keeps
   draining cells meanwhile; no phase barrier idles it.

No disk cache is needed to move results, so ``REPRO_NO_CACHE`` runs
take the same path.  ``jobs=1``, and any run under an active tracer
(forked workers' recorders never report back), run every experiment
in-process instead.

``run_experiments`` also collects a per-experiment profile (wall time
and cache hit/miss counts) for the CLI's ``--profile`` flag.  Under
cell scheduling an experiment is charged the cells *it* planned first
(wall and misses), plus its own plan and replay time; hits are the
replay's persistent-cache reads.

The pool is crash-resilient at cell granularity: a worker dying
mid-cell (a real segfault/OOM kill, or an injected fault -- see
``REPRO_CHAOS_CRASH``) breaks the whole ProcessPoolExecutor, but
results that finished before the crash are salvaged, the pool is
rebuilt and only the unfinished cells are retried, with bounded
attempts (``REPRO_RETRY_MAX``, default 3) and exponential backoff
(base ``REPRO_RETRY_BACKOFF_S``, default 0.25 s).  Backoff only ever
precedes a re-submission -- a cell that exhausts its attempts raises
immediately, without a terminal sleep.  A cell that *raises* in a
worker travels back as :class:`WorkerError` carrying the full child
traceback, not just the exception repr.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

from repro import taskbench
from repro.harness import store
from repro.harness.experiment import ExperimentResult
from repro.harness.registry import (
    EXPERIMENT_IDS,
    list_experiments,
    run_experiment,
)
from repro.harness.runner import BenchmarkData, default_data
from repro.machines import ConventionalMachine
from repro.mta import MtaMachine
from repro.obs.trace import active_tracer
from repro.workload.task import Job

#: ``seed:rate[:mode]`` -- deterministically crash-fault workers.  A
#: worker handling fault unit ``u`` on attempt ``a`` dies iff
#: ``sha256(seed|u|a|worker-crash)`` maps below ``rate``; mode
#: ``exit`` (default) kills the process (breaking the pool), ``raise``
#: raises inside the cell instead.  Workers only run simulation cells,
#: whose unit is ``cell:<recipe>@<seed_offset>``.
CHAOS_CRASH_ENV = "REPRO_CHAOS_CRASH"

RETRY_MAX_ENV = "REPRO_RETRY_MAX"
RETRY_BACKOFF_ENV = "REPRO_RETRY_BACKOFF_S"


class WorkerError(RuntimeError):
    """A cell failed inside a worker process.

    ProcessPoolExecutor pickles exceptions across the process boundary
    and the traceback does not survive the trip -- debugging a parallel
    run used to mean re-running serially.  Workers therefore catch
    everything, format the traceback *in the child*, and send it back
    attached to this exception.  ``unit`` is the failing fault unit,
    ``cell:<recipe>@<seed_offset>``.
    """

    def __init__(self, unit: str, child_traceback: str):
        self.unit = unit
        self.child_traceback = child_traceback
        super().__init__(
            f"{unit!r} failed in a worker process\n"
            f"--- worker traceback ---\n{child_traceback}")

    def __reduce__(self):
        # default exception pickling replays args (the joined message)
        # into __init__, which takes two fields -- rebuild explicitly
        return (WorkerError, (self.unit, self.child_traceback))


def _crash_config() -> Optional[tuple[int, float, str]]:
    raw = os.environ.get(CHAOS_CRASH_ENV, "")
    if not raw:
        return None
    parts = raw.split(":")
    if len(parts) < 2:
        raise ValueError(
            f"{CHAOS_CRASH_ENV} must be seed:rate[:mode], got {raw!r}")
    mode = parts[2] if len(parts) > 2 else "exit"
    if mode.endswith("+cells"):
        raise ValueError(
            f"{CHAOS_CRASH_ENV}: the '+cells' suffix is gone -- every "
            f"worker unit is a simulation cell; use mode "
            f"{mode[:-len('+cells')]!r}")
    if mode not in ("exit", "raise"):
        raise ValueError(f"unknown crash mode {mode!r}")
    return int(parts[0]), float(parts[1]), mode


def _maybe_crash(unit_id: str, attempt: int) -> None:
    """Deterministic worker-crash injection (chaos testing)."""
    cfg = _crash_config()
    if cfg is None:
        return
    seed, rate, mode = cfg
    from repro.faults.plan import derive_unit

    if derive_unit(seed, unit_id, attempt, "worker-crash") < rate:
        if mode == "raise":
            raise RuntimeError(
                f"injected worker fault for {unit_id!r} "
                f"(attempt {attempt})")
        os._exit(17)  # no cleanup -- model a hard crash/OOM kill


@dataclass(frozen=True)
class ExperimentProfile:
    """Cost accounting for one experiment run."""

    experiment_id: str
    wall_seconds: float
    cache_hits: int
    cache_misses: int
    #: one record per simulation the experiment consulted
    #: (``BenchmarkData.metrics_log`` entries: kind/machine/job/
    #: seconds/stats) -- the raw material of ``repro all --metrics``
    metrics: tuple[dict, ...] = ()


def _run_one(experiment_id: str, data: BenchmarkData,
             ) -> tuple[ExperimentResult, ExperimentProfile]:
    """Run one experiment on ``data`` in this process and account for it.

    Hit/miss attribution uses :func:`repro.harness.store.cache_scope`,
    which counts the lookups made in this call's context exactly --
    unlike snapshot deltas of the process-cumulative counters.
    """
    n0 = len(data.metrics_log)
    t0 = time.perf_counter()
    with store.cache_scope() as sc:
        result = run_experiment(experiment_id, data)
    return result, ExperimentProfile(
        experiment_id=experiment_id,
        wall_seconds=time.perf_counter() - t0,
        cache_hits=sc.hits, cache_misses=sc.misses,
        metrics=tuple(data.metrics_log[n0:]))


# ----------------------------------------------------------------------
# the planning probe: record simulation cells instead of running them
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimCell:
    """One simulation a registry experiment performs: a row of the
    registry's run table, with the job itself.

    ``job_id`` names the job across processes and universes --
    ``recipe:<key>`` for a recipe-built job, else its structural
    fingerprint -- so two jobs that share a name (``th-job-fg`` and
    ``th-job-fg-all`` are both ``threat-finegrained``) stay apart.
    """

    key: str                    #: the persistent-cache key
    kind: str                   #: ``"mta"`` or ``"conventional"``
    spec: object                #: MtaSpec or MachineSpec
    job: Job
    job_id: str
    slices_per_phase: int
    exploit_fine_grained: bool
    seed_offset: int

    def run(self, engine: str):
        """Simulate the cell's job on ``engine`` with the cell's own
        spec, slices per phase and fine-grained flag, past every cache.

        The one place a planned cell meets a named engine: every
        DES-parity check (``repro bench --verify``, ``repro sweep
        --verify``, the registry parity sweep) runs its cells here.
        """
        if self.kind == "mta":
            machine = MtaMachine(self.spec, engine=engine,
                                 slices_per_phase=self.slices_per_phase)
        else:
            machine = ConventionalMachine(
                self.spec, engine=engine,
                slices_per_phase=self.slices_per_phase,
                exploit_fine_grained=self.exploit_fine_grained)
        return machine.run(self.job)


class _PlanningData(BenchmarkData):
    """A :class:`BenchmarkData` whose ``_simulate`` records each cell.

    Kernels, scenarios and jobs are built for real (they are cheap and
    memoized); only the simulations -- the expensive part -- are
    replaced by a placeholder.  Each call is recorded as a
    :class:`SimCell`, job included; a cell whose job is a *recipe* is
    transportable (any pool worker can rebuild the job and execute the
    cell independently).  Experiment arithmetic downstream of the
    placeholder timings is garbage and discarded; the replay phase
    recomputes it, so an incomplete or failed plan is merely less
    parallel, never wrong.

    Given a ``donor`` (the data the run replays on), the probe shares
    the donor's kernel/job memo dict outright: everything the plan
    builds lands in the memos every later consumer reads, which is
    what makes parent-side planning double as pool warm-up.
    """

    def __init__(self, threat_scale: float = 0.02,
                 terrain_scale: float = 0.05, seed_offset: int = 0,
                 donor: Optional[BenchmarkData] = None):
        super().__init__(threat_scale=threat_scale,
                         terrain_scale=terrain_scale,
                         seed_offset=seed_offset)
        if donor is not None:
            self._cache = donor._cache
        self._donor = donor
        #: planner siblings, deliberately outside the (shared) memo
        #: dict so they never collide with the donor's real siblings
        self._plan_siblings: dict[int, "_PlanningData"] = {}
        #: one :class:`SimCell` per ``_simulate`` call; shared with the
        #: seed-offset siblings so one plan call sees every universe's
        #: cells
        self.sims: list[SimCell] = []
        #: job fingerprint -> job, for this universe's ``_simulate``
        self._fp_jobs: dict[str, Job] = {}

    def with_seed_offset(self, seed_offset: int) -> "_PlanningData":
        if seed_offset == self.seed_offset:
            return self
        sib = self._plan_siblings.get(seed_offset)
        if sib is None:
            donor = (self._donor.with_seed_offset(seed_offset)
                     if self._donor is not None else None)
            sib = _PlanningData(threat_scale=self.threat_scale,
                                terrain_scale=self.terrain_scale,
                                seed_offset=seed_offset, donor=donor)
            sib.sims = self.sims
            self._plan_siblings[seed_offset] = sib
        return sib

    def _job_fingerprint(self, job: Job) -> str:
        fp = super()._job_fingerprint(job)
        self._fp_jobs[fp] = job
        return fp

    def _simulate(self, key_payload: dict, run) -> float:
        self.sims.append(SimCell(
            key=self._sim_key(key_payload), kind=key_payload["kind"],
            spec=key_payload["spec"],
            job=self._fp_jobs[key_payload["job"]],
            job_id=key_payload["job"],
            slices_per_phase=key_payload["slices_per_phase"],
            exploit_fine_grained=key_payload.get(
                "exploit_fine_grained", False),
            seed_offset=self.seed_offset))
        return 1.0  # placeholder: plans never produce user-visible rows


def _cell(sim: SimCell) -> Optional[dict]:
    """The transportable descriptor a pool worker runs, or None for an
    inline-built job."""
    if not sim.job_id.startswith("recipe:"):
        return None
    recipe = sim.job_id[len("recipe:"):]
    return {
        "key": sim.key,
        "kind": sim.kind,
        "spec": sim.spec,
        "job_recipe": recipe,
        "slices_per_phase": sim.slices_per_phase,
        "exploit_fine_grained": sim.exploit_fine_grained,
        "seed_offset": sim.seed_offset,
        "unit": f"cell:{recipe}@{sim.seed_offset}",
        "weight": _cell_weight(recipe, sim.spec),
    }


def _cell_weight(recipe: str, spec) -> int:
    """Largest-first ordering heuristic: thread count x machine width.

    Only the *ordering* of cell submissions depends on this, never a
    result, so a rough static estimate is enough.
    """
    if recipe.endswith(("-fg", "-fg-all")):
        base = 1000
    elif recipe.startswith("tb-"):
        base = taskbench.recipe_weight(recipe)  # total grain units
    else:
        tail = recipe.rsplit("-", 2)
        base = int(tail[1]) if len(tail) == 3 and tail[1].isdigit() else 1
    width = (getattr(spec, "n_processors", None)
             or getattr(spec, "n_cpus", None) or 1)
    return base * int(width)


def _plan_one(experiment_id: str, planner: _PlanningData) -> dict:
    """Enumerate one experiment's simulation cells (in-process).

    Runs in the scheduling process, before the pool forks: planning is
    cheap once kernels are memoized, and doing it here warms exactly
    the state the forked workers inherit.
    """
    del planner.sims[:]
    t0 = time.perf_counter()
    try:
        run_experiment(experiment_id, planner)
    except Exception:
        # Placeholder timings can break experiment arithmetic (ratios
        # of constants, checks that divide).  The replay phase runs
        # the experiment for real, so a partial plan costs
        # parallelism, not correctness.
        pass
    cells: dict[str, Optional[dict]] = {}
    for sim in planner.sims:
        if sim.key not in cells:
            cells[sim.key] = _cell(sim)
    return {"cells": cells, "wall": time.perf_counter() - t0}


class PlanningError(RuntimeError):
    """An experiment raised while its simulation cells were planned."""


def experiment_cells(experiment_id: str,
                     data: BenchmarkData) -> list[SimCell]:
    """Every simulation a run of the experiment performs, once per
    cache key, in first-use order -- inline-built jobs included.

    This is the one run table that ``repro race``, ``repro chaos`` and
    the registry parity sweep check.  Unlike the scheduler's plan,
    which only loses parallelism when an experiment raises under the
    placeholder timings, a failed plan raises :class:`PlanningError`
    here: a plan cut short would silently shrink what is checked.
    Unknown ids raise KeyError.
    """
    if experiment_id not in list_experiments():
        raise KeyError(f"unknown experiment {experiment_id!r}")
    planner = _PlanningData(
        threat_scale=data.threat_scale, terrain_scale=data.terrain_scale,
        seed_offset=data.seed_offset, donor=data)
    try:
        run_experiment(experiment_id, planner)
    except Exception as exc:
        raise PlanningError(
            f"planning {experiment_id!r} failed: {exc!r}") from exc
    cells: dict[str, SimCell] = {}
    for cell in planner.sims:
        cells.setdefault(cell.key, cell)
    return list(cells.values())


def distinct_jobs(cells: Iterable[SimCell]) -> dict[tuple[str, int], Job]:
    """The cells' jobs, keyed by ``(job_id, seed_offset)``."""
    return {(c.job_id, c.seed_offset): c.job for c in cells}


def _run_cell(cell: dict, data: BenchmarkData) -> dict:
    """Execute one simulation cell on ``data``'s seed universe.

    The job is rebuilt from its recipe name; the resulting cache key is
    identical to the one the planner recorded (both are fingerprints of
    the same spec / recipe / scales / universe).  Returns the cell's
    wall time, cache misses and its simulation record (the one
    ``metrics_log`` entry its ``_simulate`` call appended).
    """
    data = data.with_seed_offset(cell["seed_offset"])
    job = data.job_from_recipe(cell["job_recipe"])
    n0 = len(data.metrics_log)
    t0 = time.perf_counter()
    with store.cache_scope() as sc:
        if cell["kind"] == "conventional":
            data.run_conventional(
                cell["spec"], job,
                slices_per_phase=cell["slices_per_phase"],
                exploit_fine_grained=cell["exploit_fine_grained"])
        else:
            data.run_mta_spec(
                cell["spec"], job,
                slices_per_phase=cell["slices_per_phase"])
    return {"wall": time.perf_counter() - t0, "misses": sc.misses,
            "record": data.metrics_log[n0]}


#: a pool worker's (data, start-sentinel directory), installed by the
#: pool initializer -- under fork the data is inherited, not pickled
_worker_state: Optional[tuple[BenchmarkData, str]] = None


def _init_worker(data: BenchmarkData, started_dir: str) -> None:
    global _worker_state
    _worker_state = (data, started_dir)


def _pool_cell(cell: dict, attempt: int) -> dict:
    """Pool worker body: :func:`_run_cell` behind a start sentinel and
    crash injection, with any failure sent back as :class:`WorkerError`.

    The sentinel marks the cell as started *before* any crash can
    happen, so the parent can tell cells whose worker actually died
    from cells merely poisoned by someone else's pool breakage.
    """
    data, started_dir = _worker_state
    unit = cell["unit"]
    try:
        with open(os.path.join(
                started_dir, f"{cell['key']}.{attempt}"), "w"):
            pass
        _maybe_crash(unit, attempt)
        return _run_cell(cell, data)
    except BaseException:
        raise WorkerError(unit, traceback.format_exc()) from None


#: ``cell_sink(experiment_id, records)`` receives simulation records
#: (``BenchmarkData.metrics_log`` entries) as they land, attributed to
#: the experiment on whose behalf they ran -- the run directory's
#: ``cells.jsonl`` stream.  Called in the scheduling process only.
CellSink = Callable[[str, Sequence[dict]], None]


def run_cells(
    cells: Sequence[dict],
    *,
    threat_scale: float,
    terrain_scale: float,
    jobs: int = 1,
    on_record: Optional[Callable[[dict], None]] = None,
    trim_logs: bool = False,
) -> dict[str, dict]:
    """Execute transportable simulation cells, deduped against the cache.

    The service batcher's engine entry point (and usable by any caller
    holding cell descriptors of the :class:`_PlanningData` shape:
    ``key``/``kind``/``spec``/``job_recipe``/``slices_per_phase``/
    ``exploit_fine_grained``/``seed_offset``/``unit``/``weight``).
    Cells are deduplicated by content-addressed ``key`` among
    themselves and against the persistent cache; the remainder run
    largest-first -- in this process with ``jobs <= 1``, otherwise
    fanned over the crash-salvaging pool exactly like a ``repro all -j``
    run.

    Returns ``{key: record}`` with one simulation record per distinct
    key.  ``on_record`` is additionally called with each record as it
    lands (cache hits first), in the scheduling process -- the hook the
    asyncio service uses to stream results before the whole batch has
    finished.

    ``trim_logs=True`` truncates the process-wide ``metrics_log`` after
    each in-process cell: a long-running service executes cells forever
    in one process, and the log (an append-only list meant to span one
    CLI invocation) would otherwise grow without bound.  Leave it off
    when anything else in the process profiles simulations.
    """
    records: dict[str, dict] = {}
    todo: dict[str, dict] = {}
    cache = store.active_cache()
    for cell in cells:
        key = cell["key"]
        if key in records or key in todo:
            continue
        entry = cache.get(key) if cache is not None else None
        if entry is not None:
            records[key] = store.entry_to_record(
                key, entry, cell["seed_offset"], kind=cell["kind"])
        else:
            todo[key] = cell
    if on_record is not None:
        for record in records.values():
            on_record(record)
    if not todo:
        return records

    def settle(key: str, record: dict) -> None:
        records[key] = record
        if on_record is not None:
            on_record(record)

    data = default_data(threat_scale, terrain_scale)
    order = sorted(todo.values(), key=lambda c: c["weight"],
                   reverse=True)
    if jobs > 1:
        _pool_schedule(
            order, data, jobs,
            on_result=lambda cell, value: settle(cell["key"],
                                                 value["record"]))
        return records
    for cell in order:
        settle(cell["key"], _run_cell(cell, data)["record"])
        if trim_logs:
            del data.with_seed_offset(cell["seed_offset"]).metrics_log[:]
    return records


def run_experiments(
    experiment_ids: Optional[Iterable[str]] = None,
    *,
    threat_scale: float,
    terrain_scale: float,
    jobs: int = 1,
    data: Optional[BenchmarkData] = None,
    cell_sink: Optional[CellSink] = None,
) -> tuple[dict[str, ExperimentResult], list[ExperimentProfile]]:
    """Run experiments, in parallel when ``jobs > 1``.

    Results come back keyed by id in the requested order regardless of
    completion order.  Every experiment runs on ``data`` (default: the
    shared ``default_data`` at the given scales), whatever ``jobs`` is:
    ``jobs=1`` (the default) runs the experiments serially in-process,
    ``jobs > 1`` computes their simulation cells on a pool and replays
    the experiments in-process over the returned records.

    ``cell_sink`` streams per-simulation records to the caller as work
    completes (see :data:`CellSink`); the run-directory layer uses it
    to write ``cells.jsonl`` incrementally, so even an interrupted run
    leaves its finished cells on disk.

    With ``REPRO_RUN_TIMEOUT_S=soft[:hard]`` set, a
    :class:`~repro.obs.watchdog.RunWatchdog` shadows the whole run:
    warn on stderr past ``soft`` wall-clock seconds, interrupt the run
    past ``hard``.
    """
    from contextlib import nullcontext

    from repro.obs.watchdog import RUN_TIMEOUT_ENV, RunWatchdog

    raw_timeout = os.environ.get(RUN_TIMEOUT_ENV, "")
    guard = (RunWatchdog.from_env(raw_timeout) if raw_timeout
             else nullcontext())
    with guard:
        return _run_experiments_inner(
            experiment_ids, threat_scale=threat_scale,
            terrain_scale=terrain_scale, jobs=jobs, data=data,
            cell_sink=cell_sink)


def _run_experiments_inner(
    experiment_ids: Optional[Iterable[str]] = None,
    *,
    threat_scale: float,
    terrain_scale: float,
    jobs: int = 1,
    data: Optional[BenchmarkData] = None,
    cell_sink: Optional[CellSink] = None,
) -> tuple[dict[str, ExperimentResult], list[ExperimentProfile]]:
    ids: Sequence[str] = tuple(experiment_ids or EXPERIMENT_IDS)
    if data is None:
        data = default_data(threat_scale, terrain_scale)
    # forked workers' trace recorders never report back, so a traced
    # run stays in this process
    if jobs > 1 and active_tracer() is None:
        pairs = _cell_run(ids, data, jobs, cell_sink=cell_sink)
    else:
        pairs = {}
        for eid in ids:
            pairs[eid] = _run_one(eid, data)
            if cell_sink is not None:
                cell_sink(eid, pairs[eid][1].metrics)
    return ({eid: pairs[eid][0] for eid in ids},
            [pairs[eid][1] for eid in ids])


# ----------------------------------------------------------------------
# the crash-salvaging pool scheduler
# ----------------------------------------------------------------------

def _pool_schedule(
    cells: Sequence[dict],
    data: BenchmarkData,
    jobs: int,
    on_result: Callable[[dict, dict], None],
) -> None:
    """Drain cells through one persistent pool, surviving crashes.

    Workers are forks of this process running each cell on ``data``.
    Each record a worker returns is memoized into ``data`` (so a later
    in-process ``_simulate`` of that cell is a memo hit) before
    ``on_result(cell, value)`` sees it.

    A worker that dies (``os._exit``, segfault, OOM kill) breaks the
    entire pool: every unfinished future raises
    :class:`BrokenProcessPool`.  Futures that completed *before* the
    crash still hold their results, so those are salvaged; the pool is
    rebuilt and only the failures are retried -- each cell gets
    ``REPRO_RETRY_MAX`` attempts with exponential backoff.  The attempt
    number reaches the worker, so deterministic crash injection
    (``REPRO_CHAOS_CRASH``) can fault attempt 0 and spare the retry.

    Pool breakage poisons *every* unfinished future, including cells
    that were still queued (or mid-run on another worker) when the
    culprit's worker died, and the executor gives no way to tell them
    apart.  Charging every poisoned future an attempt would let one bad
    cell exhaust innocent budgets.  So workers touch a start sentinel
    before running, and after a breakage the cells that had *started*
    the broken round (a superset containing the culprit, at most
    pool-width wide) are re-run one at a time: running alone, a crash
    identifies its cell exactly, and only that cell's attempt counter
    moves.  Cells that never started are requeued uncharged.

    Retry backoff (``base * 2**(attempt-1)``) is applied as a
    *readiness deadline* on the requeued cell, not an inline sleep: the
    scheduler keeps collecting other results while a retry waits, and a
    cell that exhausts its attempt budget raises immediately -- the
    final failure never sleeps first.
    """
    import multiprocessing as mp
    import shutil
    import tempfile

    if not cells:
        return
    # Fork (when the platform has it) so workers inherit the parent's
    # warm kernel/job memos copy-on-write -- the pool is created after
    # planning precisely so there is something to inherit.
    mp_context = (mp.get_context("fork")
                  if "fork" in mp.get_all_start_methods() else None)
    started_dir = tempfile.mkdtemp(prefix="repro-pool-")

    def new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(jobs, len(cells)), mp_context=mp_context,
            initializer=_init_worker, initargs=(data, started_dir))

    max_attempts = max(1, int(os.environ.get(RETRY_MAX_ENV, "3")))
    backoff = float(os.environ.get(RETRY_BACKOFF_ENV, "0.25"))
    by_key = {cell["key"]: cell for cell in cells}
    attempts = dict.fromkeys(by_key, 0)
    not_before: dict[str, float] = {}
    queue: list[str] = list(by_key)
    suspects: list[str] = []
    pool = new_pool()

    def settle(key: str, value: dict) -> None:
        record = value["record"]
        data.with_seed_offset(record["seed_offset"]).remember(record)
        on_result(by_key[key], value)

    def charge(key: str) -> None:
        """One failed attempt; sets the retry deadline.  The caller
        raises instead of calling this when the budget is exhausted."""
        attempts[key] += 1
        not_before[key] = time.monotonic() + \
            backoff * (2.0 ** (attempts[key] - 1))

    def submit(key: str):
        return pool.submit(_pool_cell, by_key[key], attempts[key])

    def rebuild_pool() -> None:
        nonlocal pool
        # the broken pool cannot run anything anymore
        pool.shutdown(wait=False, cancel_futures=True)
        pool = new_pool()

    def classify(key: str) -> None:
        """After a pool breakage: suspect if the cell had started its
        current attempt, requeue uncharged otherwise."""
        started = os.path.exists(os.path.join(
            started_dir, f"{key}.{attempts[key]}"))
        if started:
            suspects.append(key)
        else:
            queue.append(key)

    try:
        while queue or suspects:
            # isolation phase: one suspect at a time, so a dead worker
            # names its cell unambiguously
            while suspects:
                key = suspects.pop(0)
                delay = not_before.get(key, 0.0) - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                fut = submit(key)
                try:
                    settle(key, fut.result())
                except BrokenProcessPool as exc:
                    rebuild_pool()
                    if attempts[key] + 1 >= max_attempts:
                        raise WorkerError(
                            by_key[key]["unit"],
                            f"worker process died "
                            f"({max_attempts} attempts): {exc}") \
                            from exc
                    charge(key)
                    suspects.insert(0, key)
                except WorkerError:
                    if attempts[key] + 1 >= max_attempts:
                        raise
                    charge(key)
                    suspects.insert(0, key)
            if not queue:
                break

            # pipelined phase: keep the pool saturated with every cell
            # that is ready, collecting results as they finish
            inflight: dict[object, str] = {}
            broken = False
            while queue or inflight:
                now = time.monotonic()
                ready = [key for key in queue
                         if not_before.get(key, 0.0) <= now]
                if ready:
                    queue[:] = [key for key in queue
                                if key not in set(ready)]
                    for key in ready:
                        inflight[submit(key)] = key
                if not inflight:
                    # everything queued is a retry waiting out backoff
                    soonest = min(not_before[key] for key in queue)
                    time.sleep(max(0.0, soonest - time.monotonic()))
                    continue
                timeout = None
                if queue:
                    soonest = min(not_before.get(key, 0.0)
                                  for key in queue)
                    timeout = max(0.0, soonest - time.monotonic())
                done, _ = wait(list(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                for fut in done:
                    key = inflight.pop(fut)
                    try:
                        value = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        classify(key)
                        continue
                    except WorkerError:
                        if attempts[key] + 1 >= max_attempts:
                            raise
                        charge(key)
                        queue.append(key)
                        continue
                    settle(key, value)
                if broken:
                    # drain survivors: completed futures still hold
                    # results, everything else is poisoned
                    for fut, key in list(inflight.items()):
                        try:
                            value = fut.result()
                        except BrokenProcessPool:
                            classify(key)
                            continue
                        except WorkerError:
                            if attempts[key] + 1 >= max_attempts:
                                raise
                            charge(key)
                            queue.append(key)
                            continue
                        settle(key, value)
                    inflight.clear()
                    rebuild_pool()
                    if not suspects:
                        # sentinel writes failed somehow: isolate
                        # everyone poisoned rather than loop without
                        # progress
                        suspects[:] = queue
                        queue[:] = []
                    break
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    else:
        pool.shutdown(wait=True)
    finally:
        shutil.rmtree(started_dir, ignore_errors=True)


def _cell_run(
    ids: Sequence[str], data: BenchmarkData, jobs: int,
    cell_sink: Optional[CellSink] = None,
) -> dict[str, tuple[ExperimentResult, ExperimentProfile]]:
    """Cell-granular scheduling: plan -> deduped cells -> replay.

    Planning happens up front in this process on a probe sharing
    ``data``'s memos (warming the kernels and jobs the forked workers
    then inherit).  The transportable cells of all experiments are
    deduplicated against each other and against the persistent cache,
    sorted largest first, and fanned over the pool; each experiment is
    replayed on ``data`` here as soon as its last outstanding cell
    lands.  Cell cost (wall and cache misses) is charged to the first
    experiment that planned the cell.
    """
    cache = store.active_cache()
    planner = _PlanningData(
        threat_scale=data.threat_scale, terrain_scale=data.terrain_scale,
        seed_offset=data.seed_offset, donor=data)

    plan_wall = dict.fromkeys(ids, 0.0)
    charged_wall = dict.fromkeys(ids, 0.0)
    charged_miss = dict.fromkeys(ids, 0)
    owner: dict[str, str] = {}          # cell key -> charged eid
    waiting: dict[str, list[str]] = {}  # cell key -> waiting eids
    remaining: dict[str, set] = {eid: set() for eid in ids}

    pending_cells: list[dict] = []
    seen: dict[str, bool] = {}          # cell key -> needs computing
    for eid in ids:
        plan = _plan_one(eid, planner)
        plan_wall[eid] = plan["wall"]
        for key, cell in plan["cells"].items():
            if cell is None:
                continue  # inline-built job: replay computes it
            if key not in seen:
                seen[key] = cache is None or cache.get(key) is None
                if seen[key]:
                    owner[key] = eid
                    waiting[key] = []
                    pending_cells.append(cell)
            if seen[key]:
                waiting[key].append(eid)
                remaining[eid].add(key)

    out: dict[str, tuple[ExperimentResult, ExperimentProfile]] = {}
    # experiments with nothing outstanding replay as soon as the pool
    # has work of its own
    ready = [eid for eid in ids if not remaining[eid]]

    def replay_ready() -> None:
        while ready:
            eid = ready.pop(0)
            result, rp = _run_one(eid, data)
            if cell_sink is not None:
                # every record the replay consulted; the sink dedupes
                # against the cell records by cache key
                cell_sink(eid, rp.metrics)
            out[eid] = (result, replace(
                rp,
                wall_seconds=(plan_wall[eid] + charged_wall[eid]
                              + rp.wall_seconds),
                cache_misses=charged_miss[eid] + rp.cache_misses))

    def on_result(cell: dict, value: dict) -> None:
        key = cell["key"]
        eid = owner[key]
        charged_wall[eid] += value["wall"]
        charged_miss[eid] += value["misses"]
        if cell_sink is not None:
            cell_sink(eid, (value["record"],))
        for waiter in waiting.pop(key):
            remaining[waiter].discard(key)
            if not remaining[waiter]:
                ready.append(waiter)
        replay_ready()

    # largest first: the biggest cells bound the tail of the run
    pending_cells.sort(key=lambda c: c["weight"], reverse=True)
    _pool_schedule(pending_cells, data, jobs, on_result)
    replay_ready()
    return out


def metrics_rollup(profile: ExperimentProfile) -> dict:
    """Aggregate one experiment's simulation records into totals."""
    from repro.obs.metrics import rollup_records

    return rollup_records(profile.metrics)


def metrics_to_dict(profiles: list[ExperimentProfile]) -> dict:
    """Machine-readable ``--metrics-json`` payload (for CI)."""
    return {
        "schema": 1,
        "experiments": [
            {"experiment_id": p.experiment_id,
             "rollup": metrics_rollup(p),
             "runs": list(p.metrics)}
            for p in profiles
        ],
    }


def render_metrics(profiles: list[ExperimentProfile]) -> str:
    """The ``--metrics`` table: per-experiment simulation rollups."""
    lines = [
        f"{'experiment':<26} {'sims':>5} {'sim-sec':>10} "
        f"{'regions c/d':>12} {'closed':>7} {'drained':>8} "
        f"{'region-wall':>12} {'lock-wait':>10} {'convoy':>7}",
        "-" * 96,
    ]
    for p in profiles:
        t = metrics_rollup(p)
        regions = (f"{t['cohort_regions']:.0f}/"
                   f"{t['des_regions']:.0f}")
        lines.append(
            f"{p.experiment_id:<26} {t['sim_runs']:>5d} "
            f"{t['simulated_seconds']:>10.3f} {regions:>12} "
            f"{t['closed_form_regions']:>7.0f} "
            f"{t['drained_grants']:>8.0f} "
            f"{t['region_wall_seconds']:>12.3f} "
            f"{t['lock_wait_seconds']:>10.3f} "
            f"{t['lock_convoy_max']:>7.0f}")
    return "\n".join(lines)


def render_profile(profiles: list[ExperimentProfile]) -> str:
    """The ``--profile`` table (per-experiment wall + cache traffic).

    Under cell-granular scheduling an experiment's wall is its plan +
    the cells it was first to request + its replay; misses are counted
    where the simulation was actually computed, hits are the replay's
    persistent-cache reads (cells computed during the run reach the
    replay through the in-process memo and count as neither).
    """
    lines = [
        f"{'experiment':<26} {'wall (s)':>9} {'cache hits':>11} "
        f"{'misses':>7}",
        "-" * 56,
    ]
    for p in profiles:
        lines.append(f"{p.experiment_id:<26} {p.wall_seconds:>9.2f} "
                     f"{p.cache_hits:>11d} {p.cache_misses:>7d}")
    lines.append("-" * 56)
    lines.append(
        f"{'total':<26} {sum(p.wall_seconds for p in profiles):>9.2f} "
        f"{sum(p.cache_hits for p in profiles):>11d} "
        f"{sum(p.cache_misses for p in profiles):>7d}")
    return "\n".join(lines)
