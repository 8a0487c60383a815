"""Benchmark data cache and machine-run helpers.

Running an experiment takes three steps: (1) generate the synthetic
scenarios and execute the real benchmark kernels (once, cached here);
(2) turn the instrumented runs into machine-model jobs; (3) simulate
the jobs on the platform models.  ``BenchmarkData`` owns step 1 and
memoizes everything downstream of it.

The kernels run at a reduced scale by default (the workload extractors
extrapolate exactly -- see the ``workload`` modules); pass larger
scales for higher-fidelity structural statistics at more kernel time.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from functools import lru_cache

from repro import taskbench
from repro.c3i import terrain as TE
from repro.c3i import threat as TH
from repro.cmt.spec import cmt as cmt_spec
from repro.harness import store
from repro.obs.trace import active_tracer
from repro.machines import ConventionalMachine, exemplar, ppro
from repro.machines.catalog import ALPHASTATION_500
from repro.machines.spec import MachineSpec
from repro.mta import MtaMachine, mta
from repro.mta.spec import MtaSpec
from repro.workload.task import Job


#: sibling universes a data set keeps.  The seed-robustness study
#: reaches universes 0, 1 and 2, at most three siblings of any parent,
#: so a registry run never rebuilds one.
SIBLINGS_MAX = 3


class BenchmarkData:
    """Scenarios + instrumented kernel runs for both benchmarks."""

    def __init__(self, threat_scale: float = 0.02,
                 terrain_scale: float = 0.05, seed_offset: int = 0):
        self.threat_scale = threat_scale
        self.terrain_scale = terrain_scale
        self.seed_offset = seed_offset
        self._cache: dict[str, object] = {}
        #: seed offset -> sibling universe, least recently used first
        self._siblings: OrderedDict[int, BenchmarkData] = OrderedDict()
        #: id(job) -> (job, fingerprint); the job reference keeps the
        #: id stable, the identity check guards against id reuse.
        self._job_fps: dict[int, tuple[Job, str]] = {}
        #: one entry per _simulate call (including memo/cache hits):
        #: {"kind", "machine", "job", "seconds", "stats"} -- the raw
        #: material of ``repro all --metrics``
        self.metrics_log: list[dict] = []

    def with_seed_offset(self, seed_offset: int) -> "BenchmarkData":
        """A sibling data set over an alternative synthetic-input
        universe (same scales, different generator seeds).

        Centralizing the construction lets the parallel planner
        intercept *every* simulation an experiment performs, including
        the seed-robustness study's alternative universes.  The parent
        keeps its :data:`SIBLINGS_MAX` most recently used siblings, so
        a worker that executes many cells of the same universe pays
        its kernels once while a service fed arbitrary seed offsets
        holds a bounded number of universes.
        """
        if seed_offset == self.seed_offset:
            return self
        sib = self._siblings.pop(seed_offset, None)
        if sib is None:
            sib = type(self)(threat_scale=self.threat_scale,
                             terrain_scale=self.terrain_scale,
                             seed_offset=seed_offset)
        self._siblings[seed_offset] = sib
        while len(self._siblings) > SIBLINGS_MAX:
            self._siblings.popitem(last=False)
        return sib

    # ------------------------------------------------------------------
    # kernels (step 1)
    # ------------------------------------------------------------------
    def _memo(self, key: str, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _job(self, key: str, fn) -> Job:
        """Memoize a named job recipe and register its fingerprint.

        A recipe-built job is a deterministic function of (recipe
        name, scales, seed offset, model code); everything but the
        name is already folded into every simulation key, so the name
        alone identifies the job content and the structural
        fingerprint walk over the full step tree is skipped.
        """
        job = self._memo(key, fn)
        hit = self._job_fps.get(id(job))
        if hit is None or hit[0] is not job:
            self._job_fps[id(job)] = (job, "recipe:" + key)
        return job

    @property
    def threat_scenarios(self):
        return self._memo("th-sc", lambda: TH.benchmark_scenarios(
            scale=self.threat_scale, seed_offset=self.seed_offset))

    @property
    def threat_sequential(self):
        return self._memo("th-seq", lambda: [
            TH.run_sequential(s) for s in self.threat_scenarios])

    @property
    def terrain_scenarios(self):
        return self._memo("te-sc", lambda: TE.benchmark_scenarios(
            scale=self.terrain_scale, seed_offset=self.seed_offset))

    @property
    def terrain_sequential(self):
        return self._memo("te-seq", lambda: [
            TE.run_sequential(s) for s in self.terrain_scenarios])

    @property
    def terrain_finegrained(self):
        return self._memo("te-fg", lambda: [
            TE.run_finegrained(s) for s in self.terrain_scenarios])

    @property
    def terrain_blocked(self):
        """Program 4's kernel runs.  Threats are walked in queue order
        whatever the worker count, so one run serves every count."""
        return self._memo("te-bl", lambda: [
            TE.run_blocked(s) for s in self.terrain_scenarios])

    # ------------------------------------------------------------------
    # jobs (step 2)
    # ------------------------------------------------------------------
    def threat_sequential_job(self) -> Job:
        return self._job("th-job-seq", lambda: TH.sequential_benchmark_job(
            self.threat_scenarios, self.threat_sequential))

    def threat_chunked_job(self, n_chunks: int,
                           thread_kind: str = "os") -> Job:
        return self._job(
            f"th-job-ch-{n_chunks}-{thread_kind}",
            lambda: TH.chunked_benchmark_job(
                self.threat_scenarios, self.threat_sequential, n_chunks,
                thread_kind=thread_kind))

    def threat_finegrained_job(self) -> Job:
        return self._job("th-job-fg", lambda: TH.finegrained_benchmark_job(
            self.threat_scenarios, self.threat_sequential))

    def threat_finegrained_all_job(self) -> Job:
        """The sync-variable variant with one thread per threat (no
        coalescing): Section 5's 5000-thread alternative."""
        return self._job(
            "th-job-fg-all", lambda: TH.finegrained_benchmark_job(
                self.threat_scenarios, self.threat_sequential,
                max_threads=None))

    def terrain_sequential_job(self) -> Job:
        return self._job("te-job-seq", lambda: TE.sequential_benchmark_job(
            self.terrain_scenarios, self.terrain_sequential))

    def terrain_blocked_job(self, n_threads: int,
                            thread_kind: str = "os") -> Job:
        """Program 4 over ``n_threads`` workers.  Every count and kind
        shares one universe-wide build's steps and work items; only
        the queue regions and the job name differ."""
        base = self._memo("te-job-bl", lambda: TE.blocked_benchmark_job(
            self.terrain_scenarios, self.terrain_blocked, n_threads=1))
        return self._job(
            f"te-job-bl-{n_threads}-{thread_kind}",
            lambda: TE.rethread_blocked_job(base, n_threads, thread_kind))

    def terrain_finegrained_job(self) -> Job:
        return self._job("te-job-fg", lambda: TE.finegrained_benchmark_job(
            self.terrain_scenarios, self.terrain_finegrained))

    def taskbench_job(self, recipe: str) -> Job:
        """A generated task-graph job; the recipe *is* the parameter
        vector (``tb-<topo>-w<W>-d<D>-g<G>-s<S>-<kind>``), so the key
        round-trips through :meth:`job_from_recipe` like every other
        recipe."""
        return self._job(recipe, lambda: taskbench.job_from_recipe(recipe))

    def job_from_recipe(self, key: str) -> Job:
        """Rebuild a recipe-named job from its key.

        The inverse of the ``_job`` registry: any job whose fingerprint
        is ``recipe:<key>`` can be reconstructed in a different process
        from the key alone, which is what lets the parallel harness
        ship individual simulation cells to pool workers.
        """
        if key == "th-job-seq":
            return self.threat_sequential_job()
        if key == "th-job-fg":
            return self.threat_finegrained_job()
        if key == "th-job-fg-all":
            return self.threat_finegrained_all_job()
        if key == "te-job-seq":
            return self.terrain_sequential_job()
        if key == "te-job-fg":
            return self.terrain_finegrained_job()
        if key.startswith("th-job-ch-"):
            n, kind = key[len("th-job-ch-"):].rsplit("-", 1)
            return self.threat_chunked_job(int(n), thread_kind=kind)
        if key.startswith("te-job-bl-"):
            n, kind = key[len("te-job-bl-"):].rsplit("-", 1)
            return self.terrain_blocked_job(int(n), thread_kind=kind)
        if key.startswith("tb-"):
            taskbench.parse_recipe(key)  # raises KeyError if malformed
            return self.taskbench_job(key)
        raise KeyError(f"unknown job recipe {key!r}")

    # ------------------------------------------------------------------
    # simulation (step 3)
    # ------------------------------------------------------------------
    # Every simulation goes through _simulate, which layers an
    # in-process memo over the persistent content-addressed cache
    # (repro.harness.store).  The key fingerprints everything that
    # determines the outcome, so ablation specs made with
    # dataclasses.replace get distinct entries even though they share a
    # name with the catalog spec.

    def _job_fingerprint(self, job: Job) -> str:
        hit = self._job_fps.get(id(job))
        if hit is not None and hit[0] is job:
            return hit[1]
        fp = store.fingerprint(job)
        self._job_fps[id(job)] = (job, fp)
        return fp

    def _sim_key(self, key_payload: dict) -> str:
        """The persistent-cache key of one simulation cell."""
        return store.cell_key(
            key_payload, threat_scale=self.threat_scale,
            terrain_scale=self.terrain_scale,
            seed_offset=self.seed_offset)

    def _simulate(self, key_payload: dict, run) -> float:
        key = self._sim_key(key_payload)
        memo_key = "sim-" + key
        memo = self._cache.get(memo_key)
        if memo is not None:
            self.metrics_log.append(memo)
            store.note_record(memo)
            return memo["seconds"]
        # Tracing must observe an actual simulation, not a cached
        # number, so an active tracer bypasses the persistent cache
        # (the in-process memo still applies: one trace per distinct
        # run is exactly what a trace viewer wants).
        cache = store.active_cache() if active_tracer() is None else None
        entry = cache.get(key) if cache is not None else None
        if entry is not None:
            record = store.entry_to_record(
                key, entry, self.seed_offset, kind=key_payload["kind"])
        else:
            result = run()
            record = {
                "key": key,
                "kind": key_payload["kind"],
                "machine": result.machine,
                "job": result.job,
                "seconds": result.seconds,
                "seed_offset": self.seed_offset,
                "stats": dict(result.stats),
            }
            if cache is not None:
                payload = dataclasses.asdict(result)
                payload["kind"] = key_payload["kind"]
                cache.put(key, payload)
        self._cache[memo_key] = record
        self.metrics_log.append(record)
        store.note_record(record)
        return record["seconds"]

    def remember(self, record: dict) -> None:
        """Memoize a simulation record computed elsewhere (a pool
        worker running one of this data's cells), so the next
        ``_simulate`` of that cell is a memo hit."""
        self._cache["sim-" + record["key"]] = record

    def run_conventional(self, spec: MachineSpec, job: Job, *,
                         slices_per_phase: int = 16,
                         exploit_fine_grained: bool = False) -> float:
        return self._simulate(
            {"kind": "conventional", "spec": spec,
             "slices_per_phase": slices_per_phase,
             "exploit_fine_grained": exploit_fine_grained,
             "job": self._job_fingerprint(job)},
            lambda: ConventionalMachine(
                spec, slices_per_phase=slices_per_phase,
                exploit_fine_grained=exploit_fine_grained).run(job))

    def run_mta_spec(self, spec: MtaSpec, job: Job, *,
                     slices_per_phase: int = 8) -> float:
        return self._simulate(
            {"kind": "mta", "spec": spec,
             "slices_per_phase": slices_per_phase,
             "job": self._job_fingerprint(job)},
            lambda: MtaMachine(
                spec, slices_per_phase=slices_per_phase).run(job))

    def run_mta(self, n_processors: int, job: Job) -> float:
        return self.run_mta_spec(mta(n_processors), job)

    # convenience shorthands used by the registry -----------------------
    def alpha(self, job: Job) -> float:
        return self.run_conventional(ALPHASTATION_500, job)

    def ppro(self, n: int, job: Job) -> float:
        return self.run_conventional(ppro(n), job)

    def exemplar(self, n: int, job: Job) -> float:
        return self.run_conventional(exemplar(n), job)

    def cmt(self, n: int, job: Job) -> float:
        return self.run_conventional(cmt_spec(n), job)


@lru_cache(maxsize=4)
def default_data(threat_scale: float = 0.02,
                 terrain_scale: float = 0.05) -> BenchmarkData:
    """The process-wide shared benchmark data (kernels run once)."""
    return BenchmarkData(threat_scale=threat_scale,
                         terrain_scale=terrain_scale)
