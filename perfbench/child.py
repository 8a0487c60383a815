"""One benchmark process: a fresh interpreter per pass.

``run.py`` starts this file with ``PYTHONPATH`` pointing at the
checkout's ``src``, so every pass pays its own imports.  Modes:

``setup``
    Import the harness and build the workload's data, print ``ready``,
    exit (a set-up time sample).
``pass``
    Set up, print ``ready``, run one registry pass, print ``done`` and
    write its measurements (and, with ``--trace``, its per-layer spans)
    as JSON to ``--out``.
``serve``
    Host ``repro serve`` with the span recorder installed; the spans
    and the process's own counts go to ``--out`` when it exits.
``verify-serve``
    Recompute every record a server streamed with an in-process
    ``run_cells`` and report the mismatches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

from probe import probe_s
from spans import SpanRecorder

THREAT_SCALE = 0.02
TERRAIN_SCALE = 0.05
SCALES = {"threat_scale": THREAT_SCALE, "terrain_scale": TERRAIN_SCALE}

#: machines and job recipes the registry spot check draws from; only
#: those the pass actually simulated (present in its cache) qualify
SPOT_MACHINES = ("alpha", "ppro:1", "ppro:2", "ppro:4", "exemplar:1",
                 "exemplar:2", "exemplar:4", "exemplar:8", "exemplar:16",
                 "mta:1", "mta:2", "mta:4")
SPOT_RECIPES = ("th-job-seq", "te-job-seq", "th-job-ch-4-os",
                "th-job-ch-16-os", "th-job-ch-16-sw", "te-job-bl-4-os",
                "te-job-bl-16-os", "te-job-bl-16-sw")


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _ready() -> None:
    _say("ready")


class StampedLog(list):
    """``BenchmarkData.metrics_log`` that also notes when each record
    landed and, with ``probe``, times the box-speed probe right after it
    (``probe.py``).  The runner appends one record per simulation, so
    the stamps cut a serial pass into the same steps on every pass of a
    universe; a step runs from the end of one probe to the next record."""

    def __init__(self, probe: bool) -> None:
        super().__init__()
        self.probe = probe
        self.ends: list[float] = []
        self.starts: list[float] = []
        self.probes: list[float] = []

    def append(self, record) -> None:
        self.ends.append(time.perf_counter())
        super().append(record)
        if self.probe:
            self.probes.append(probe_s())
        self.starts.append(time.perf_counter())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# batch passes
# ----------------------------------------------------------------------

def registry_pass(universe: int, recorder, probe: bool) -> dict:
    """``repro all -j 1`` over one synthetic-input universe."""
    from repro.harness.parallel import run_experiments
    from repro.harness.rundir import run_scope
    from repro.harness.runner import BenchmarkData

    data = BenchmarkData(seed_offset=universe, **SCALES)
    data.metrics_log = log = StampedLog(probe)
    _ready()
    flags = dict(SCALES, jobs=1, profile=False, metrics=False)
    t0 = time.perf_counter()
    with recorder.root("pass"):
        with run_scope("all", flags, argv=["all", "-j", "1"]) as run:
            results, profiles = run_experiments(
                threat_scale=THREAT_SCALE, terrain_scale=TERRAIN_SCALE,
                jobs=1, data=data,
                cell_sink=run.cell_sink if run is not None else None)
            failed = [eid for eid, r in results.items()
                      if not r.all_checks_pass()]
            if run is not None:
                run.write_report(results.values(), profiles)
                run.exit_status = 1 if failed else 0
    t1 = time.perf_counter()
    _say("done")
    starts, ends = [t0, *log.starts], [*log.ends, t1]
    # exactly what ``python -m repro all`` prints: rows and verdicts
    text = "".join(r.render() + "\n\n" for r in results.values())
    return {"wall_s": t1 - t0, "peak_rss_mb": _peak_rss_mb(),
            "steps_s": [b - a for a, b in zip(starts, ends)],
            "probes_s": log.probes,
            "attempted": len(results), "failed_ops": failed,
            "digest": _digest(text)}


# ----------------------------------------------------------------------
# the DES oracle spot check (outside the timed region)
# ----------------------------------------------------------------------

def _des_seconds(cell: dict) -> float:
    from repro.harness.runner import BenchmarkData
    from repro.machines.machine import ConventionalMachine
    from repro.mta.machine import MtaMachine

    data = BenchmarkData(seed_offset=cell["seed_offset"], **SCALES)
    job = data.job_from_recipe(cell["job_recipe"])
    if cell["kind"] == "mta":
        machine = MtaMachine(cell["spec"],
                             slices_per_phase=cell["slices_per_phase"],
                             use_cohort=False)
    else:
        machine = ConventionalMachine(
            cell["spec"], slices_per_phase=cell["slices_per_phase"],
            exploit_fine_grained=cell["exploit_fine_grained"],
            use_cohort=False)
    return machine.run(job).seconds


def spot_check(cells: list[dict], expected: dict, rng: random.Random,
               k: int) -> tuple[int, list[str]]:
    """Re-run ``k`` seed-drawn cells on pure DES; each must agree with
    the fast-path seconds within ``harness.bench.REL_TOL``."""
    from repro.harness.bench import REL_TOL

    sample = rng.sample(cells, min(k, len(cells)))
    problems = []
    for cell in sample:
        des = _des_seconds(cell)
        fast = expected[cell["key"]]
        if abs(des - fast) > REL_TOL * max(abs(des), abs(fast)):
            problems.append(f"DES oracle: {cell['unit']} on "
                            f"{cell['spec'].name}: DES {des!r} vs "
                            f"fast path {fast!r}")
    return len(sample), problems


def registry_spot_cells(universe: int) -> tuple[list[dict], dict]:
    """Registry cells of this universe the pass left in the cache."""
    from repro.harness import store
    from repro.service.protocol import cell_from_payload

    cache = store.active_cache()
    cells, expected = [], {}
    for machine in SPOT_MACHINES:
        for recipe in SPOT_RECIPES:
            cell = cell_from_payload(
                {"machine": machine, "workload": recipe,
                 "seed_offset": universe}, **SCALES)
            entry = cache.get(cell["key"]) if cache is not None else None
            if entry is not None:
                cells.append(cell)
                expected[cell["key"]] = float(entry["seconds"])
    return cells, expected


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------

def cmd_setup(args) -> int:
    # the imports a pass makes before its first timed call are the set-up
    from repro.harness.parallel import run_experiments  # noqa: F401
    from repro.harness.rundir import run_scope  # noqa: F401
    from repro.harness.runner import BenchmarkData

    BenchmarkData(seed_offset=args.universe, **SCALES)
    _ready()
    return 0


def cmd_pass(args) -> int:
    recorder = SpanRecorder()
    if args.trace:
        recorder.install()
    out = registry_pass(args.universe, recorder, probe=not args.trace)
    if args.trace:
        recorder.uninstall()
        trace = recorder.chrome_trace()
        from repro.obs.trace import validate_chrome_trace

        validate_chrome_trace(trace)
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        out["layers"] = recorder.layer_metrics()
        out["integrity"] = recorder.integrity()
    out["spot_checked"], out["spot_failures"] = 0, []
    if args.spot:
        rng = random.Random(f"spot:{args.workload}:{args.seed}")
        cells, expected = registry_spot_cells(args.universe)
        out["spot_checked"], out["spot_failures"] = spot_check(
            cells, expected, rng, args.spot)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def cmd_serve(args, argv: list[str]) -> int:
    """``repro serve`` with spans; counts and spans written at exit."""
    from repro.__main__ import main

    recorder = SpanRecorder()
    recorder.install()
    status = main(["--threat-scale", str(args.threat_scale),
                   "--terrain-scale", str(args.terrain_scale), "serve",
                   *argv])
    recorder.uninstall()
    out = {"layers": recorder.layer_metrics(),
           "integrity": recorder.integrity()}
    trace = recorder.chrome_trace()
    from repro.obs.trace import validate_chrome_trace

    validate_chrome_trace(trace)
    with open(args.trace, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return status


def cmd_verify_serve(args) -> int:
    """Every streamed record must equal an in-process ``run_cells``."""
    os.environ["REPRO_NO_CACHE"] = "1"
    from repro.harness.parallel import run_cells
    from repro.service.protocol import cell_from_payload

    scales = {"threat_scale": args.threat_scale,
              "terrain_scale": args.terrain_scale}
    with open(args.input, encoding="utf-8") as fh:
        pairs = json.load(fh)
    problems = []
    local: dict[str, dict] = {}
    for payload, streamed in pairs:
        name = json.dumps(payload, sort_keys=True)
        if name not in local:
            cell = cell_from_payload(payload, **scales)
            record = run_cells([cell], **scales)[cell["key"]]
            local[name] = json.loads(json.dumps(record))
        served = {k: v for k, v in streamed.items() if k != "cell"}
        if served != local[name]:
            problems.append(f"served record for {payload} differs from "
                            f"an in-process run_cells")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"checked": len(pairs), "problems": problems}, fh)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "serve",
                                         "verify-serve"))
    parser.add_argument("--workload", default="registry-cold")
    parser.add_argument("--universe", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spot", type=int, default=0,
                        help="DES oracle spot-check sample size")
    parser.add_argument("--trace", default=None,
                        help="record spans; Chrome trace JSON path")
    parser.add_argument("--out", default=None)
    parser.add_argument("--input", default=None)
    parser.add_argument("--threat-scale", type=float, default=THREAT_SCALE)
    parser.add_argument("--terrain-scale", type=float,
                        default=TERRAIN_SCALE)
    args, rest = parser.parse_known_args()
    if args.mode == "setup":
        return cmd_setup(args)
    if args.mode == "pass":
        return cmd_pass(args)
    if args.mode == "serve":
        return cmd_serve(args, rest)
    return cmd_verify_serve(args)


if __name__ == "__main__":
    sys.exit(main())
