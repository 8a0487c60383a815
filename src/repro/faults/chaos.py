"""The ``repro chaos`` runner: fault-injected registry sweeps.

For each selected experiment the runner takes the jobs of the
simulation cells a run of it performs
(:func:`repro.harness.parallel.experiment_cells`, one entry per job
and seed universe), runs each healthy and under the fault plan on the
selected platform archetypes (by default the 2-processor MTA and the
4-CPU Exemplar; ``--machines`` can add the 64-strand T3-4 CMT), and
reports the realized fault schedule plus the degradation.  The
archetypes, not each cell's own machine, carry the faults, so one
plan's schedule is comparable across every job.  Runs bypass the
persistent result cache -- the machines are driven directly -- so the
payload depends only on (plan, seed, scales) and the engine's
arithmetic; with the stats rounded to 6 significant digits the DES and
cohort payloads are byte-identical, which CI asserts.  An experiment
whose plan fails is an error (exit 1), never a shorter sweep.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.faults.inject import (
    FaultedRun,
    run_faulted_conventional,
    run_faulted_mta,
)
from repro.faults.plan import FaultPlan
from repro.harness.parallel import (
    PlanningError,
    distinct_jobs,
    experiment_cells,
)
from repro.harness.runner import BenchmarkData
from repro.machines import cmt, exemplar
from repro.machines.machine import ConventionalMachine
from repro.mta import mta
from repro.mta.machine import MtaMachine
from repro.workload.cohort import resolve_engine
from repro.workload.task import Job

SCHEMA = "repro-chaos-report/v1"

#: one fault of every kind, times and severities derived from the seed
DEFAULT_FAULTS = ",".join(
    ("streams", "bank-hotspot", "febit-stall", "cache-ways",
     "mem-latency"))

#: platform archetypes a chaos sweep can fault.  The default pair is
#: unchanged from the original runner (CI pins its payload bytes);
#: "cmt" adds the 64-strand T3-4 slice of the third machine family.
DEFAULT_MACHINES = ("mta", "conventional")
MACHINE_KINDS = ("mta", "conventional", "cmt")


def _sig(x: float, digits: int = 6) -> float:
    """Round to ``digits`` significant digits (payload stability: the
    engines agree to 1e-9 relative, so 6 digits are engine-proof)."""
    return float(f"{float(x):.{digits}g}")


def _round_stats(stats: dict[str, float]) -> dict[str, float]:
    """The payload's stats: the fault attribution only.

    The engines' parity contract covers ``seconds`` (1e-9 relative)
    and ``lock_wait_seconds``; the remaining run stats are scheduling
    diagnostics (server busy times, ``des_*``/``cohort_*`` region
    counters, lock queue-depth histograms) that legitimately differ
    between the DES and cohort paths and would defeat the byte-
    identical cross-engine payload check.  Full merged stats stay
    available programmatically on :class:`FaultedRun`."""
    return {k: _sig(v) for k, v in sorted(stats.items())
            if k == "faults_injected" or k.startswith("fault_")}


class _ChaosRunner:
    """Shared-job memoization across experiments (a job like the
    sequential threat benchmark appears in many tables; simulate it
    once per machine).  Jobs are keyed by ``(job_id, seed_offset)``,
    never by name."""

    def __init__(self, data: BenchmarkData, plan: FaultPlan):
        self.data = data
        self.plan = plan
        self.mta_spec = mta(2)
        self.specs = {"conventional": exemplar(4), "cmt": cmt(64)}
        self._healthy: dict[tuple, float] = {}
        self._faulted: dict[tuple, FaultedRun] = {}

    # ------------------------------------------------------------------
    def healthy_seconds(self, machine: str, jid: tuple, job: Job) -> float:
        key = (machine, jid)
        if key not in self._healthy:
            if machine == "mta":
                result = MtaMachine(self.mta_spec).run(job)
            else:
                result = ConventionalMachine(self.specs[machine]).run(job)
            self._healthy[key] = result.seconds
        return self._healthy[key]

    def faulted_run(self, machine: str, jid: tuple, job: Job) -> FaultedRun:
        key = (machine, jid)
        if key not in self._faulted:
            if machine == "mta":
                run = run_faulted_mta(self.mta_spec, job, self.plan)
            else:
                run = run_faulted_conventional(self.specs[machine], job,
                                               self.plan)
            self._faulted[key] = run
        return self._faulted[key]

    def job_entry(self, machine: str, jid: tuple, job: Job) -> dict:
        healthy = self.healthy_seconds(machine, jid, job)
        run = self.faulted_run(machine, jid, job)
        slowdown = run.seconds / healthy if healthy > 0 else 1.0
        return {
            "job": job.name,
            "machine": run.machine,
            "schedule": [f.to_payload() for f in run.schedule],
            "applied": [f.kind for f in run.applied],
            "n_segments": run.n_segments,
            "healthy_seconds": _sig(healthy),
            "faulted_seconds": _sig(run.seconds),
            "slowdown": _sig(slowdown),
            # derating never speeds a job up; tripping this means an
            # injection bug (or a non-monotone model regression)
            "ok": run.seconds >= healthy * (1.0 - 1e-9),
            "stats": _round_stats(run.stats),
        }


def chaos_report(experiment_ids: list[str], data: BenchmarkData,
                 faults: str = DEFAULT_FAULTS,
                 seed: int = 0,
                 machines: tuple[str, ...] = DEFAULT_MACHINES) -> dict:
    """Build the chaos payload for the given experiments.  Raises
    KeyError for an unknown id and
    :class:`~repro.harness.parallel.PlanningError` when planning an
    experiment fails."""
    for machine in machines:
        if machine not in MACHINE_KINDS:
            raise ValueError(f"unknown chaos machine {machine!r}; "
                             f"known: {list(MACHINE_KINDS)}")
    plan = FaultPlan.parse(faults, seed=seed)
    runner = _ChaosRunner(data, plan)
    experiments = []
    for eid in experiment_ids:
        entries = []
        for jid, job in distinct_jobs(experiment_cells(eid, data)).items():
            for machine in machines:
                entries.append(runner.job_entry(machine, jid, job))
        experiments.append({"experiment": eid, "jobs": entries})
    return {
        "schema": SCHEMA,
        "engine": resolve_engine(),
        "seed": seed,
        "plan": plan.to_payload(),
        "threat_scale": data.threat_scale,
        "terrain_scale": data.terrain_scale,
        "experiments": experiments,
    }


def render_report(payload: dict) -> str:
    """Human-readable summary of a chaos payload."""
    lines = []
    plan = payload["plan"]
    kinds = ",".join(f["kind"] for f in plan["faults"])
    lines.append(f"chaos report ({payload['engine']} engine, "
                 f"seed {payload['seed']}, faults: {kinds})")
    header = (f"  {'experiment':<24} {'job':<28} {'machine':<16} "
              f"{'slowdown':>9}  faults")
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for exp in payload["experiments"]:
        if not exp["jobs"]:
            lines.append(f"  {exp['experiment']:<24} "
                         f"(no simulated jobs)")
            continue
        for e in exp["jobs"]:
            mark = "" if e["ok"] else "  <-- SPEEDUP?!"
            applied = ",".join(e["applied"]) or "-"
            lines.append(
                f"  {exp['experiment']:<24} {e['job']:<28} "
                f"{e['machine']:<16} {e['slowdown']:>8.3f}x  "
                f"{applied}{mark}")
    n_bad = sum(1 for exp in payload["experiments"]
                for e in exp["jobs"] if not e["ok"])
    n_jobs = sum(len(exp["jobs"]) for exp in payload["experiments"])
    lines.append(f"  {n_jobs} faulted runs, "
                 f"{n_bad} monotonicity violations")
    return "\n".join(lines)


def run_chaos(experiment_ids: list[str], data: BenchmarkData, *,
              run_all: bool = False, faults: str = DEFAULT_FAULTS,
              seed: int = 0, json_path: Optional[str] = None,
              machines: tuple[str, ...] = DEFAULT_MACHINES,
              run=None) -> int:
    """CLI entry point; returns the exit status.

    ``run`` is an optional :class:`repro.harness.rundir.RunWriter`:
    every faulted job becomes a queryable cell and the payload is
    stored as the run's report.
    """
    from repro.harness.registry import EXPERIMENT_IDS

    ids = list(EXPERIMENT_IDS) if run_all else list(experiment_ids)
    if not ids:
        print("chaos: give experiment ids or --all", file=sys.stderr)
        return 2
    try:
        payload = chaos_report(ids, data, faults=faults, seed=seed,
                               machines=machines)
    except PlanningError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        print(f"chaos: {exc.args[0]}", file=sys.stderr)
        return 2
    print(render_report(payload))
    if run is not None:
        for exp in payload["experiments"]:
            for e in exp["jobs"]:
                run.record(exp["experiment"], {
                    "kind": "chaos",
                    "machine": e["machine"],
                    "job": e["job"],
                    "seconds": e["faulted_seconds"],
                    "stats": dict(
                        e["stats"],
                        healthy_seconds=e["healthy_seconds"],
                        slowdown=e["slowdown"]),
                })
        run.write_report(payload=payload)
    if json_path is not None:
        import json

        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {json_path}")
    bad = any(not e["ok"] for exp in payload["experiments"]
              for e in exp["jobs"])
    return 1 if bad else 0
