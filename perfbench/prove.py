"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/prove.py [--workloads a,b] [--seeds 10] [--record]

Runs every workload once per seed (seeds 1..N, each run a fresh
``run.py`` process exactly as ``BENCHMARK.json`` specifies), then
prints each end-to-end metric's median, quartiles and spread (the
inter-quartile range as a share of the median, which must stay within
the metric's bound, and should stay under a third of it).

Each median is also held to the last trajectory point in
``baseline.json`` measured with the same ``run_seconds``: it may not be
worse than that point's median by more than the metric's bound.  That
is the only check ``setup_s`` gets: its spread is printed but, as in
the benchmark contract, does not fail the run, because a set-up of a
fraction of a second follows the box's speed from one run to the next
and is held to its bound by its median instead.

``--record`` appends the medians and quartiles, with ``nproc``, the
Python version and the box-drift probe, as a trajectory point to
``baseline.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

from common import HERE, ROOT


def bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    took = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    probes = re.search(r"drift probe: ([\d.]+) ms before, ([\d.]+) ms",
                       proc.stdout)
    result["probe_ms"] = [float(probes[1]), float(probes[2])]
    result["took_s"] = took
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def last_point(run_seconds: int) -> dict:
    """The workloads of the newest trajectory point with this run
    length (empty if there is none)."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        points = json.load(fh)["trajectory"]
    same = [p for p in points if p["run_seconds"] == run_seconds]
    return same[-1]["workloads"] if same else {}


def main() -> int:
    spec = bench()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    before = last_point(spec["run_seconds"])
    point: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            res = run_once(spec, workload, seed, 0)
            if not res["correct"]:
                ok = False
            runs.append(res)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                + f" (probe {res['probe_ms'][0]:.1f}/"
                  f"{res['probe_ms'][1]:.1f} ms; run took "
                  f"{res['took_s']:.0f} s)", flush=True)
        point[workload] = {}
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for r in runs])
            point[workload][name] = s
            flag = "ok" if s["spread"] < bound / 3 else (
                "WIDE" if s["spread"] <= bound else "OVER BOUND")
            # set-up time is held to its median, not to its spread
            # (see the module docstring)
            ok = ok and (name == "setup_s" or s["spread"] <= bound)
            line = (f"  {name:<12} median {s['median']:.5g}  q1 "
                    f"{s['q1']:.5g}  q3 {s['q3']:.5g}  spread "
                    f"{s['spread']:.3f} (bound {bound}) {flag}")
            old = before.get(workload, {}).get(name)
            if old is not None:
                # every end-to-end metric is better lower
                change = s["median"] / old["median"] - 1.0
                ok = ok and change <= bound
                line += (f"; median {change:+.3f} vs the last point"
                         + ("" if change <= bound else " WORSE THAN BOUND"))
            print(line, flush=True)
        point[workload]["box.probe_ms"] = summary(
            [p for r in runs for p in r["probe_ms"]])
    if args.record:
        path = os.path.join(HERE, "baseline.json")
        with open(path, encoding="utf-8") as fh:
            baseline = json.load(fh)
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        baseline["trajectory"].append({
            "commit": rev.stdout.strip() or None,
            "date": datetime.date.today().isoformat(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "seeds": list(range(1, args.seeds + 1)),
            "run_seconds": spec["run_seconds"],
            "workloads": point,
        })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
