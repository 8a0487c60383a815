"""Per-layer wall spans recorded from outside the program.

The recorder wraps the public entry points of each ``repro`` layer on
the attribute its caller resolves at call time (a module or class
attribute), so nothing under ``src/`` changes.  Spans are kept in memory
as ``[name, start, end, parent, thread]`` rows and summarised when the
run ends:

* a span's *self time* is its duration minus the time its direct child
  spans cover (children on one thread never overlap, so a plain sum is
  exact);
* each layer metric is the self time and call count of its spans, plus
  the counts the program itself returns (``RunResult.stats`` and the
  cohort engine's per-region ``stats``).

``repro.obs.trace.tracing()`` is deliberately not used: an active event
tracer makes the runner bypass the result cache, which would turn a
warm-cache workload into a cold one.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager

#: wrapped public entry points per layer: module -> attribute names
KERNELS = {
    "repro.c3i.threat": ("run_sequential", "benchmark_scenarios"),
    "repro.c3i.terrain": ("run_sequential", "run_blocked",
                          "run_finegrained", "benchmark_scenarios"),
}
JOB_BUILDERS = {
    "repro.c3i.threat": ("sequential_benchmark_job",
                         "chunked_benchmark_job",
                         "finegrained_benchmark_job"),
    "repro.c3i.terrain": ("sequential_benchmark_job",
                          "blocked_benchmark_job",
                          "finegrained_benchmark_job"),
    "repro.taskbench": ("job_from_recipe",),
}

#: cohort-engine dispatch kinds, in the order the per-layer metrics list
#: them; ``pure_des`` is the event-stepped simulator outside any region
DES_KINDS = ("queue_solver", "stepped", "single_class", "single_member",
             "pure_des")


def _classify_region(stats: dict) -> str:
    """The dispatch path ``CohortEngine.run`` took, read from the stats
    it leaves behind (the order of its own branch tests)."""
    if stats.get("queue_solver"):
        return "queue_solver"
    if stats.get("closed_form"):
        return "single_member" if stats.get("members") == 1 \
            else "single_class"
    return "stepped"


class SpanRecorder:
    """Wraps layer entry points and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        #: counts the program reports, summed over wrapped calls
        self.counts = {"des.events": 0, "des.drained_grants": 0,
                       "des.stepped_grants": 0,
                       "des.pure_des_regions": 0,
                       "stats.cohort_regions": 0,
                       "store.hits": 0, "store.put_bytes": 0}
        self.regions = dict.fromkeys(DES_KINDS[:-1], 0)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._threads.setdefault(threading.get_ident(),
                                     len(self._threads))
        return stack

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped to record a span; ``after(result, args, row)``
        folds returned counts into :attr:`counts` once the span closed."""
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            row = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   threading.get_ident()]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args, row)
            return result

        return wrapper

    @contextmanager
    def root(self, name: str):
        """Record the span every other span of this thread nests under
        (the workload pass itself)."""
        stack = self._stack()
        row = [name, time.perf_counter(), 0.0, -1, threading.get_ident()]
        stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield row
        finally:
            row[2] = time.perf_counter()
            stack.pop()

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, after))

    # ------------------------------------------------------------------
    # the layers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public entry points."""
        import importlib

        from repro.des.batch import CohortEngine
        from repro.des.simulator import Simulator
        from repro.harness import index, parallel, store
        from repro.harness.rundir import RunWriter
        from repro.machines.machine import ConventionalMachine
        from repro.mta.machine import MtaMachine

        for module, names in KERNELS.items():
            mod = importlib.import_module(module)
            for attr in names:
                self._patch(mod, attr, "c3i.kernel")
        for module, names in JOB_BUILDERS.items():
            mod = importlib.import_module(module)
            for attr in names:
                self._patch(mod, attr, "jobs.build")
        counts = self.counts

        def after_get(result, args, row):
            if result is not None:
                counts["store.hits"] += 1

        def after_put(result, args, row):
            cache, key = args[0], args[1]
            try:
                counts["store.put_bytes"] += os.path.getsize(
                    os.path.join(cache.directory, key + ".json"))
            except OSError:
                pass

        self._patch(store, "fingerprint", "store.fingerprint")
        self._patch(store.ResultCache, "get", "store.get", after_get)
        self._patch(store.ResultCache, "put", "store.put", after_put)

        def after_machine(result, args, row):
            stats = result.stats
            counts["stats.cohort_regions"] += int(stats["cohort_regions"])
            counts["des.pure_des_regions"] += int(stats["des_regions"])

        self._patch(ConventionalMachine, "run", "engine.run",
                    after_machine)
        self._patch(MtaMachine, "run", "engine.run", after_machine)

        regions = self.regions

        def after_region(result, args, row):
            stats = args[0].stats
            kind = _classify_region(stats)
            regions[kind] += 1
            row[0] = "des." + kind
            counts["des.events"] += stats["events"]
            counts["des.drained_grants"] += stats["drained_grants"]
            counts["des.stepped_grants"] += stats["stepped_grants"]

        self._patch(CohortEngine, "run", "des.region", after_region)
        self._patch(Simulator, "run", "des.pure_des")
        self._patch(RunWriter, "record", "rundir.record")
        self._patch(RunWriter, "write_report", "rundir.report")
        self._patch(index, "index_run", "index.upsert")
        self._patch(parallel, "run_cells", "harness.run_cells")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children."""
        out = [row[2] - row[1] for row in self.spans]
        for row in self.spans:
            parent = row[3]
            if parent >= 0:
                out[parent] -= row[2] - row[1]
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics (self seconds and call counts)."""
        selfs = self.self_times()
        by_name: dict[str, list] = {}
        for row, own in zip(self.spans, selfs):
            acc = by_name.setdefault(row[0], [0.0, 0])
            acc[0] += own
            acc[1] += 1

        def s(name):
            return by_name.get(name, [0.0, 0])[0]

        def n(name):
            return by_name.get(name, [0.0, 0])[1]

        c = self.counts
        gets = n("store.get")
        out = {
            "c3i.kernel_s": s("c3i.kernel"),
            "c3i.kernel_calls": n("c3i.kernel"),
            "jobs.build_s": s("jobs.build"),
            "jobs.built": n("jobs.build"),
            "store.fingerprint_s": s("store.fingerprint"),
            "store.fingerprints": n("store.fingerprint"),
            "store.get_s": s("store.get"),
            "store.gets": gets,
            "store.hit_ratio": c["store.hits"] / gets if gets else 0.0,
            "store.put_s": s("store.put"),
            "store.puts": n("store.put"),
            "store.put_bytes": c["store.put_bytes"],
            "engine.run_s": s("engine.run"),
            "engine.runs": n("engine.run"),
        }
        for kind in DES_KINDS[:-1]:
            out[f"des.{kind}_s"] = s("des." + kind)
            out[f"des.{kind}_regions"] = self.regions[kind]
        out["des.pure_des_s"] = s("des.pure_des")
        out["des.pure_des_regions"] = c["des.pure_des_regions"]
        for key in ("des.events", "des.drained_grants",
                    "des.stepped_grants"):
            out[key] = c[key]
        out["rundir.write_s"] = s("rundir.record") + s("rundir.report")
        out["rundir.records"] = n("rundir.record")
        out["index.upsert_s"] = s("index.upsert")
        out["harness.self_s"] = s("pass") + s("harness.run_cells")
        return out

    def integrity(self) -> list[str]:
        """Span counts that must agree with counts the program reports:
        every cohort region ``RunResult.stats`` counts ran exactly one
        ``CohortEngine.run``, and every engine run drove exactly one
        ``Simulator.run`` event loop (its pure-DES regions run inside
        that loop, so ``RunResult.stats`` is their only count)."""
        problems = []
        program = self.counts["stats.cohort_regions"]
        traced = sum(self.regions.values())
        if traced != program:
            problems.append(
                f"traced {traced} cohort regions, RunResult.stats "
                f"reports {program}")
        spans = self.spans
        runs = sum(1 for row in spans if row[0] == "engine.run")
        loops = sum(1 for row in spans if row[0] == "des.pure_des"
                    and row[3] >= 0 and spans[row[3]][0] == "engine.run")
        if loops != runs:
            problems.append(f"traced {loops} event loops under "
                            f"{runs} engine runs")
        if any(row[2] < row[1] for row in self.spans):
            problems.append("a span never closed")
        return problems

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete events)."""
        t0 = min((row[1] for row in self.spans), default=0.0)
        tids = self._threads
        events: list[dict] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "repro (wall clock)"}}]
        for tid in sorted(tids.values()):
            events.append({"ph": "M", "name": "thread_name", "pid": 1,
                           "tid": tid, "args": {"name": f"thread-{tid}"}})
        for row in self.spans:
            events.append({
                "ph": "X", "name": row[0], "pid": 1,
                "tid": tids.get(row[4], 0),
                "ts": (row[1] - t0) * 1e6,
                "dur": (row[2] - row[1]) * 1e6,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
