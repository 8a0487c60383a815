"""``repro bench``: measure the cohort fast path against pure DES.

Two modes:

* The default re-measures the kernel benchmark rows recorded in
  ``BENCH_harness.json``: each row is one (machine, job) pair run on
  the ``REPRO_ENGINE`` engine (default ``closed``) and on pure DES,
  best-of-N wall clock, and the two runs must satisfy the parity
  contract of :func:`parity_problem`.

* ``--verify`` runs every distinct simulation cell the registry's
  experiments plan on pure DES and on the ``REPRO_ENGINE`` engine, no
  cache, and holds each pair to :func:`parity_problem` (seconds and
  lock wait).  This is the end-to-end equivalence gate the cohort
  work is held to.

Exit status is non-zero if any equivalence check fails, so both modes
are CI-ready.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Optional

from repro.harness.runner import BenchmarkData
from repro.workload.cohort import resolve_engine

#: relative tolerance on simulated seconds, fast engine vs DES
REL_TOL = 1e-9

#: the canonical kernel rows; each builds (machine, job) from data.
#: Definitions are spelled out here so the numbers in
#: ``BENCH_harness.json`` stay re-measurable by name alone.
def _rows() -> dict[str, Callable]:
    from repro.machines import ConventionalMachine, exemplar
    from repro.mta import MtaMachine, mta

    return {
        "exemplar16-threat16": lambda data, engine: (
            ConventionalMachine(exemplar(16), engine=engine),
            data.threat_chunked_job(16)),
        "exemplar16-terrain-bl8": lambda data, engine: (
            ConventionalMachine(exemplar(16), engine=engine),
            data.terrain_blocked_job(8)),
        "mta1-threat256": lambda data, engine: (
            MtaMachine(mta(1), engine=engine),
            data.threat_chunked_job(256, thread_kind="hw")),
        "mta2-threat256": lambda data, engine: (
            MtaMachine(mta(2), engine=engine),
            data.threat_chunked_job(256, thread_kind="hw")),
        # lock-convoy-dominated: every fine-grained thread appends its
        # result under one lock, so the region is one long convoy
        "exemplar16-threatfg1000": lambda data, engine: (
            ConventionalMachine(exemplar(16), engine=engine),
            data.threat_finegrained_job()),
        # barrier-dominated: 1024 chunks over 128 hw streams, lock-free
        # lockstep phases joined only at the region barrier
        "mta1-threat1024": lambda data, engine: (
            MtaMachine(mta(1), engine=engine),
            data.threat_chunked_job(1024, thread_kind="hw")),
        # work-queue-dominated: 16 workers pull threat items off a
        # shared queue (the terrain merge locks ride along), exercising
        # the event-stepped two-server loop rather than class compression
        "exemplar16-terrain-bl16": lambda data, engine: (
            ConventionalMachine(exemplar(16), engine=engine),
            data.terrain_blocked_job(16)),
    }


def rel_err(a: float, b: float) -> float:
    """``|a - b|`` relative to the larger magnitude; the parity check
    is ``rel_err(...) <= REL_TOL``."""
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def parity_problem(des, fast) -> Optional[str]:
    """The engine-parity contract for one job run on pure DES and on a
    fast engine; returns how the pair breaks it, or None.

    ``seconds`` must agree within ``REL_TOL`` relative and
    ``lock_wait_seconds`` within 1e-6 relative (1e-9 absolute near
    zero).  Scheduling diagnostics (``des_*`` / ``cohort_*`` region
    counters, convoy histograms) are engine attribution and sit
    outside the contract.
    """
    if rel_err(fast.seconds, des.seconds) > REL_TOL:
        return f"seconds: DES {des.seconds!r} != fast {fast.seconds!r}"
    wait_d, wait_f = des.lock_wait_seconds, fast.lock_wait_seconds
    if abs(wait_f - wait_d) > max(1e-6 * abs(wait_d), 1e-9):
        return f"lock_wait_seconds: DES {wait_d!r} != fast {wait_f!r}"
    return None


def _best_of(fn: Callable[[], object], repeat: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best, result


def run_kernel_bench(data: BenchmarkData, repeat: int = 3,
                     json_path: Optional[str] = None,
                     run=None) -> int:
    """Measure each kernel row DES-vs-cohort; returns an exit status.

    ``run`` is an optional :class:`repro.harness.rundir.RunWriter`;
    each row becomes a queryable cell (``repro runs query --cell
    exemplar16-threatfg1000``) and the full payload is stored as the
    run's report, so the perf trajectory accumulates without anyone
    hand-editing ``BENCH_harness.json``.
    """
    print(f"kernel rows, best of {repeat} "
          f"(threat_scale={data.threat_scale}, "
          f"terrain_scale={data.terrain_scale})")
    print(f"{'row':24s} {'des_s':>9s} {'cohort_s':>9s} {'speedup':>8s} "
          f"{'rel_err':>9s}")
    status = 0
    payload = {}
    for name, build in _rows().items():
        machine_d, job = build(data, "des")
        wall_d, res_d = _best_of(lambda: machine_d.run(job), repeat)
        machine_c, _ = build(data, None)
        wall_c, res_c = _best_of(lambda: machine_c.run(job), repeat)
        rel = rel_err(res_c.seconds, res_d.seconds)
        problem = parity_problem(res_d, res_c)
        ok = problem is None
        if not ok:
            status = 1
        print(f"{name:24s} {wall_d:9.4f} {wall_c:9.4f} "
              f"{wall_d / wall_c:7.2f}x {rel:9.2e}"
              f"{'' if ok else f'  MISMATCH {problem}'}")
        payload[name] = {
            "wall_des_s": round(wall_d, 4),
            "wall_cohort_s": round(wall_c, 4),
            "speedup": round(wall_d / wall_c, 2),
            "simulated_seconds": res_c.seconds,
            "equivalent": ok,
        }
        if run is not None:
            run.record("bench", {
                "cell": name,
                "kind": machine_c.__class__.__name__,
                "machine": machine_c.spec.name,
                "job": job.name,
                "seconds": res_c.seconds,
                "stats": dict(payload[name]),
            })
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    if run is not None:
        run.write_report(payload=payload)
    return status


def run_verify(data: BenchmarkData, run=None) -> int:
    """DES parity for every distinct simulation cell the registry plans.

    One walk over :func:`~repro.harness.parallel.experiment_cells` of
    every experiment: each cell, deduped by its cache key, runs on pure
    DES and on the ``REPRO_ENGINE`` engine (:meth:`SimCell.run`, no
    cache) and the pair must meet :func:`parity_problem`.  Returns 1 on
    any problem or on an experiment whose plan fails.
    """
    from repro.harness.parallel import PlanningError, experiment_cells
    from repro.harness.registry import EXPERIMENT_IDS

    fast_engine = resolve_engine()
    walls = {"plan": 0.0, "des": 0.0, fast_engine: 0.0}
    checked: set[str] = set()
    bad = []
    for eid in EXPERIMENT_IDS:
        t0 = time.perf_counter()
        try:
            cells = experiment_cells(eid, data)
        except PlanningError as exc:
            print(f"bench --verify: {exc}")
            return 1
        walls["plan"] += time.perf_counter() - t0
        for cell in cells:
            if cell.key in checked:
                continue
            checked.add(cell.key)
            t0 = time.perf_counter()
            des = cell.run("des")
            t1 = time.perf_counter()
            fast = cell.run(fast_engine)
            walls["des"] += t1 - t0
            walls[fast_engine] += time.perf_counter() - t1
            problem = parity_problem(des, fast)
            if problem is not None:
                bad.append((eid, f"{cell.job.name}@{cell.seed_offset} on "
                                 f"{cell.spec.name} [{cell.key[:12]}]",
                            problem))
    print(f"verified {len(checked)} cells across "
          f"{len(EXPERIMENT_IDS)} experiments against pure DES "
          f"({fast_engine} engine): {len(bad)} mismatches")
    print(", ".join(f"{name} {wall:.1f}s" for name, wall in walls.items()))
    for eid, cell, problem in bad:
        print(f"  MISMATCH {eid} / {cell}: {problem}")
    if run is not None:
        run.write_report(payload={
            "mode": "verify",
            "engine": fast_engine,
            "cells_verified": len(checked),
            "experiments": len(EXPERIMENT_IDS),
            "mismatches": [
                {"experiment": eid, "cell": cell, "problem": problem}
                for eid, cell, problem in bad
            ],
            "walls_s": {k: round(v, 3) for k, v in walls.items()},
        })
    return 1 if bad else 0
