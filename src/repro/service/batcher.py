"""Dedupe a request's simulation cells and run its misses as one engine job.

The batcher is the seam between the asyncio front half of the service
(connections, request parsing, response streaming) and the synchronous
simulation engine.  Each request's cells pass two dedupe layers, and
whatever is left becomes one engine job:

1. **completed dedupe** -- a cell whose content-addressed key is
   already in the persistent result cache is answered immediately
   (``dedupe_cached``);
2. **in-flight dedupe** -- a cell whose key is already executing
   attaches to the existing :class:`asyncio.Future` instead of running
   twice: *one engine run, N result streams* (``dedupe_inflight``);
3. **one engine job per request** -- the request's remaining misses
   go to the engine thread together (``batches``, ``batched_cells``).
   Healthy cells run through one
   :func:`repro.harness.parallel.run_cells` call, which orders them
   largest-first and, with ``jobs > 1``, fans them over the
   crash-salvaging process pool exactly like a ``repro all -j`` sweep.
   Faulted cells run through the fault injector in the same job.

A request carries one (threat_scale, terrain_scale) pair, so a job
never mixes kernel universes.

The engine side is a single dedicated thread.  Jobs queue on it FIFO,
so a request's cells wait behind every job submitted before them.
Records hop back to the event loop with ``call_soon_threadsafe`` --
each one resolves its future the moment it lands, so subscribers
stream per-cell results while the rest of the job is still running.

Futures are shared and never cancelled by subscriber disconnects: a
client that goes away mid-stream merely stops reading, while the job
-- and every other subscriber's stream -- survives.

Faulted cells (a request with a fault plan) bypass the result cache by
design (see ``repro.faults.chaos``) but still get in-flight dedupe;
their records carry the realized fault schedule.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time
from typing import Callable, Optional

from repro.faults.inject import run_faulted_conventional, run_faulted_mta
from repro.harness import parallel, store
from repro.harness.runner import default_data
from repro.obs.metrics import ServiceCounters


class CellBatcher:
    """Owns the in-flight table and the engine thread."""

    def __init__(self, *, jobs: int = 1,
                 counters: Optional[ServiceCounters] = None,
                 on_record: Optional[Callable[[dict], None]] = None):
        self.jobs = max(1, int(jobs))
        self.counters = counters if counters is not None \
            else ServiceCounters()
        #: called on the event loop with every record the engine
        #: produced (not cache hits) -- the run-store persistence hook
        self.on_record = on_record
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: key -> shared future of a cell queued or executing
        self._inflight: dict[str, asyncio.Future] = {}
        self._engine = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine")
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()

    async def drain(self) -> None:
        """Finish everything in flight, then stop the engine thread."""
        self._closed = True
        if self._inflight:
            await asyncio.gather(
                *[asyncio.shield(f) for f in self._inflight.values()],
                return_exceptions=True)
        self._engine.shutdown(wait=True)

    # ------------------------------------------------------------------
    # submission (event loop side)
    # ------------------------------------------------------------------
    def submit(self, cells: list[dict]) -> list[asyncio.Future]:
        """Dedupe one request's cells; run its misses as one engine job.

        Must be called on the event loop.  Returns one (possibly
        shared) future per cell, resolving to the cell's simulation
        record.  Callers must not cancel them; await them through
        ``asyncio.shield`` if a caller can itself be cancelled.
        """
        assert self._loop is not None, "batcher not started"
        if self._closed:
            raise RuntimeError("service is shutting down")
        cache = store.active_cache()
        futures: list[asyncio.Future] = []
        misses: list[dict] = []
        for cell in cells:
            self.counters.cells += 1
            key = cell["key"]
            fut = self._inflight.get(key)
            if fut is not None:
                self.counters.dedupe_inflight += 1
                futures.append(fut)
                continue
            fut = self._loop.create_future()
            futures.append(fut)
            faulted = "fault_plan" in cell
            entry = (cache.get(key) if cache is not None and not faulted
                     else None)
            if entry is not None:
                self.counters.dedupe_cached += 1
                fut.set_result(store.entry_to_record(
                    key, entry, cell["seed_offset"], kind=cell["kind"]))
                continue
            if faulted:
                self.counters.faulted_cells += 1
            self._inflight[key] = fut
            misses.append(cell)
        if misses:
            self.counters.batches += 1
            self.counters.batched_cells += len(misses)
            self._loop.run_in_executor(self._engine, self._run_job,
                                       misses)
        return futures

    # ------------------------------------------------------------------
    # engine thread side
    # ------------------------------------------------------------------
    def _run_job(self, cells: list[dict]) -> None:
        assert self._loop is not None
        loop = self._loop
        settled: set[str] = set()

        def emit(record: dict) -> None:
            settled.add(record["key"])
            loop.call_soon_threadsafe(self._settle, record["key"],
                                      record, None)

        healthy = [c for c in cells if "fault_plan" not in c]
        try:
            if healthy:
                # resolved at call time: tracing wraps this attribute
                parallel.run_cells(
                    healthy, threat_scale=healthy[0]["threat_scale"],
                    terrain_scale=healthy[0]["terrain_scale"],
                    jobs=self.jobs, on_record=emit, trim_logs=True)
            for cell in cells:
                if "fault_plan" in cell:
                    emit(_faulted_record(cell))
        except BaseException as exc:  # noqa: BLE001 -- fail the job
            for cell in cells:
                if cell["key"] not in settled:
                    loop.call_soon_threadsafe(
                        self._settle, cell["key"], None, exc)

    # ------------------------------------------------------------------
    # settlement (event loop side)
    # ------------------------------------------------------------------
    def _settle(self, key: str, record: Optional[dict],
                exc: Optional[BaseException]) -> None:
        fut = self._inflight.pop(key, None)
        if record is not None:
            self.counters.engine_cells += 1
            if self.on_record is not None:
                self.on_record(record)
        if fut is None or fut.done():
            return
        if exc is not None:
            fut.set_exception(exc)
        else:
            fut.set_result(record)


def _faulted_record(cell: dict) -> dict:
    """Run one fault-injected cell; its record carries the schedule."""
    data = default_data(cell["threat_scale"], cell["terrain_scale"]) \
        .with_seed_offset(cell["seed_offset"])
    job = data.job_from_recipe(cell["job_recipe"])
    run_faulted = (run_faulted_mta if cell["kind"] == "mta"
                   else run_faulted_conventional)
    t0 = time.perf_counter()
    run = run_faulted(cell["spec"], job, cell["fault_plan"],
                      slices_per_phase=cell["slices_per_phase"])
    del data.metrics_log[:]
    return {
        "key": cell["key"],
        "kind": "faulted-" + cell["kind"],
        "machine": run.machine,
        "job": run.job,
        "seconds": run.seconds,
        "seed_offset": cell["seed_offset"],
        "stats": dict(run.stats, service_wall=time.perf_counter() - t0),
        "fault_schedule": [f.to_payload() for f in run.schedule],
        "fault_applied": [f.kind for f in run.applied],
    }
