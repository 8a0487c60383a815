"""Paths, child-process plumbing and statistics shared by the workloads."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

#: input universes the seed maps onto; ``digests.json`` covers each
UNIVERSES = 16


def universe_of(seed: int) -> int:
    """The synthetic-input universe a seed selects.

    Seed 0 is universe 0, the default inputs.  Other seeds avoid
    universes 1 and 2: the registry's seed-robustness study already
    runs those, so they would do less work than every other universe.
    """
    return 0 if seed == 0 else 3 + (seed - 1) % (UNIVERSES - 3)


#: limit on any child process
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong output)."""


def child_env(cache_dir: str, runs_dir: str) -> dict:
    """The environment of a ``repro`` process: this checkout's sources,
    private cache and run-store directories, no inherited overrides."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = cache_dir
    env["REPRO_RUNS_DIR"] = runs_dir
    return env


def fresh_dir(work: str, tag: str) -> str:
    return os.path.join(work, f"{tag}-{time.monotonic_ns()}")


def child_argv(mode: str, *args: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "child.py"), mode, *args]


def run_child(work: str, mode: str, workload: str, universe: int, *,
              cache_dir: str, seed: int = 0, spot: int = 0,
              trace: str | None = None) -> dict:
    """One fresh interpreter; returns its result plus ``setup_s`` (spawn
    until the child reported ``ready``) and, for a pass, ``outer_wall_s``
    (``ready`` until ``done``, as this process saw it)."""
    out = fresh_dir(work, "child") + ".json"
    runs_dir = fresh_dir(work, "runs")
    argv = child_argv(mode, "--workload", workload,
                      "--universe", str(universe), "--seed", str(seed),
                      "--spot", str(spot), "--out", out)
    if trace:
        argv += ["--trace", trace]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT,
                            env=child_env(cache_dir, runs_dir))
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        done = proc.stdout.readline()
        outer = time.perf_counter() - ready
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {mode} {workload} timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    shutil.rmtree(runs_dir, ignore_errors=True)
    if proc.returncode != 0 or line.strip() != b"ready":
        tail = (line + done + rest)[-500:]
        raise BenchError(f"child {mode} {workload} exited "
                         f"{proc.returncode}: {tail!r}")
    result = {"setup_s": ready - t0}
    if done.strip() == b"done":
        result["outer_wall_s"] = outer
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            result.update(json.load(fh))
        os.remove(out)
    return result


def trace_file(workload: str, seed: int) -> str:
    """Where a traced run keeps its Chrome trace."""
    directory = os.path.join(STATE, "traces")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{workload}-seed{seed}.json")
