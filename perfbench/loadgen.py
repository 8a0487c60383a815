"""The serve-mixed workload: ``repro serve`` under open-loop load.

One load process (this one) drives the server on two connections with
the request space of the repo's own closed-loop ``repro load``
(``repro.service.loadgen``), offered open loop:

* **hot** -- the four ``HOT_CELLS``, already in the cache after the warm
  pass, at ``HOT_RPS`` on one connection;
* **scan** -- one-cell requests over the ``repro load`` scan space
  (``SCAN_MACHINES`` x ``SCAN_RECIPES``) on two input universes, the
  hot one and one the server has not touched, whose kernels the first
  scans build.  The seed shuffles the order, so every seed offers the
  same kinds of cell.  Mostly cold keys, at ``SCAN_RPS`` on a second
  connection.

The server runs at the scales BENCH_service.json was measured at, and
the rates come from its capacities (a ``repro load`` run, one
connection per mix, closed loop):

* the hot mix served 2408 requests/s; ``HOT_RPS`` is a twelfth of that,
  so the hot path alone never queues and any hot wait is charged by the
  scan stream;
* the scan mix got through 10.45 requests/s with one request
  outstanding.  Offered open loop on a 2-CPU box, 10/s over the full
  scan space backlogged (a scan median of 3.9 s and rising); 4/s and
  2/s held.  ``SCAN_RPS`` is 5/s, which over a run of 20 s or more
  gives the scan stream 100 samples or more, with the backlog bounded
  once the blocked Terrain Masking recipes are left out
  (``SCAN_RECIPES``).

A one-cell scan never fills the batcher's 64-cell ``max_batch`` that
ROADMAP item 4's head-of-line case names: such a batch holds the engine
for seconds, so a run would see a handful of them and its hot p99 would
depend on where they fell.  This mix measures hot requests behind
one-cell batches.

The generator is open loop: each request is sent when it is due,
whether or not earlier answers have arrived, and is timed from its due
time, so a stalled server charges its stall to every request queued
behind it.  How late the generator itself sent is reported as
``loadgen.late_p99_ms``.  Errors, refused connections and requests
unanswered by the end of the drain window count as failed, and as
misses of the hot limit.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time

from common import (
    CHILD_TIMEOUT_S,
    ROOT,
    UNIVERSES,
    BenchError,
    child_argv,
    child_env,
    fresh_dir,
)
from probe import REF_S, speed_s
from repro.obs.metrics import quantile
from repro.service.loadgen import (
    HOT_CELLS,
    SCAN_MACHINES,
    SCAN_WORKLOADS,
    ServiceClient,
)

#: the scales BENCH_service.json was measured at, so its capacities hold
SERVE_SCALES = ("--threat-scale", "0.01", "--terrain-scale", "0.02")
HOT_RPS = 200.0
SCAN_RPS = 5.0
#: hot requests slower than this (from their due time) miss the limit:
#: the hot p99 of this mix on a 2-CPU box (64 ms at seed 1), rounded up
HOT_LIMIT_MS = 100.0
#: how long answers may trail the last due time
DRAIN_S = 60.0
#: server start-ups per serve-mixed run (the last one takes the load)
SERVE_SETUPS = 5


def hot_cells(universe: int) -> list[dict]:
    return [dict(c, seed_offset=universe) for c in HOT_CELLS]


#: the ``repro load`` scan recipes less the blocked Terrain Masking ones:
#: at the service scales their cells take 300-400 ms each against a
#: median of 8 ms -- a quarter of the space but most of its engine time --
#: so offered open loop they queue behind each other and the scan median
#: follows the order the seed happens to draw
SCAN_RECIPES = tuple(w for w in SCAN_WORKLOADS
                     if not w.startswith("te-job-bl"))


def scan_cells(n: int, universe: int, seed: int) -> list[dict]:
    """The seeded scan stream: every scan cell of the hot universe and
    of an untouched one, in a seeded order, repeated to length ``n``."""
    space = [{"machine": machine, "workload": workload,
              "seed_offset": offset}
             for offset in (universe, universe + UNIVERSES)
             for machine in SCAN_MACHINES for workload in SCAN_RECIPES]
    random.Random(f"serve-mixed:{seed}").shuffle(space)
    return [space[i % len(space)] for i in range(n)]


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------

class Server:
    """One ``repro serve`` process on an ephemeral port, with a fresh
    cache and run store."""

    def __init__(self, work: str, trace_path: str | None = None):
        self.work = work
        self.trace_path = trace_path
        self.out = fresh_dir(work, "serve") + ".json"
        self.port = 0
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn and wait for the listening banner; returns seconds."""
        serve = ["--host", "127.0.0.1", "--port", "0"]
        if self.trace_path:
            argv = child_argv("serve", "--trace", self.trace_path,
                              "--out", self.out, *SERVE_SCALES, *serve)
        else:
            argv = [sys.executable, "-m", "repro", *SERVE_SCALES, "serve",
                    *serve]
        env = child_env(fresh_dir(self.work, "cache"),
                        fresh_dir(self.work, "runs"))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=env)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.kill()
            raise BenchError(f"repro serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        return time.perf_counter() - t0

    def request(self, message: dict) -> list[dict]:
        """One blocking request on its own connection."""
        async def exchange() -> list[dict]:
            client = await ServiceClient.connect("127.0.0.1", self.port)
            try:
                return await asyncio.wait_for(client.request(message),
                                              CHILD_TIMEOUT_S)
            finally:
                await client.close()

        try:
            return asyncio.run(exchange())
        except (ConnectionError, asyncio.TimeoutError) as exc:
            raise BenchError(f"{message.get('op')} request failed: "
                             f"{exc!r}") from None

    def stop(self):
        """Ask for shutdown, wait; returns the process's rusage."""
        self.request({"op": "shutdown"})
        return self.wait()

    def wait(self):
        proc = self.proc
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                proc.stdout.close()
                if proc.returncode != 0:
                    raise BenchError(f"repro serve exited "
                                     f"{proc.returncode}")
                return usage
            if time.monotonic() > deadline:
                self.kill()
                raise BenchError("repro serve did not drain")
            time.sleep(0.02)

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc is not None:
            self.proc.stdout.close()


def start_warm(work: str, universe: int,
               trace_path: str | None = None) -> tuple[Server, float]:
    """Start a server and run the warm pass: the hot cells once."""
    server = Server(work, trace_path)
    took = server.start()
    try:
        t0 = time.perf_counter()
        lines = server.request({"op": "simulate", "id": "warm",
                                "cells": hot_cells(universe)})
    except BaseException:
        server.kill()
        raise
    if not lines[-1].get("ok"):
        server.kill()
        raise BenchError(f"warm pass failed: {lines[-1]}")
    return server, took + time.perf_counter() - t0


# ----------------------------------------------------------------------
# the open-loop generator
# ----------------------------------------------------------------------

class Stream:
    """One connection's schedule and what came back."""

    def __init__(self, name: str, payloads: list[dict], rate: float,
                 phase: float):
        self.name = name
        self.payloads = payloads
        self.due = [(i + phase) / rate for i in range(len(payloads))]
        n = len(payloads)
        self.sent = [None] * n
        self.first = [None] * n
        self.done = [None] * n
        self.ok = [False] * n
        self.records: list[dict | None] = [None] * n

    async def send(self, client: ServiceClient, t0: float) -> None:
        for i, payload in enumerate(self.payloads):
            delay = t0 + self.due[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.sent[i] = time.perf_counter()
            await client.send({"op": "simulate", "id": f"{self.name}-{i}",
                               "cells": [payload]})

    async def receive(self, client: ServiceClient) -> None:
        left = len(self.payloads)
        while left:
            try:
                msg = await client.recv()
            except ConnectionError:
                return
            now = time.perf_counter()
            rid = msg.get("id")
            if not isinstance(rid, str) or "-" not in rid:
                continue
            i = int(rid.rsplit("-", 1)[1])
            kind = msg.get("type")
            if kind == "cell":
                if self.first[i] is None:
                    self.first[i] = now
                    self.records[i] = msg["cell"]
            elif kind in ("done", "error"):
                self.done[i] = now
                self.ok[i] = kind == "done" and bool(msg.get("ok")) \
                    and self.records[i] is not None
                left -= 1

    def latencies_ms(self, t0: float) -> list[float]:
        return [(d - (t0 + due)) * 1e3
                for d, due, ok in zip(self.done, self.due, self.ok) if ok]


async def _drive(port: int, streams: list[Stream], seconds: float):
    clients = [await ServiceClient.connect("127.0.0.1", port)
               for _ in streams]
    t0 = time.perf_counter() + 0.05
    tasks = []
    for stream, client in zip(streams, clients):
        tasks.append(asyncio.ensure_future(stream.send(client, t0)))
        tasks.append(asyncio.ensure_future(stream.receive(client)))
    try:
        await asyncio.wait_for(asyncio.gather(*tasks),
                               timeout=seconds + DRAIN_S)
    except asyncio.TimeoutError:
        pass  # unanswered requests count as failed
    finally:
        for client in clients:
            await client.close()
    return t0


def load(port: int, universe: int, seed: int, seconds: float) -> dict:
    """Run the fixed schedule; returns latencies and counts."""
    hot_pool = hot_cells(universe)
    n_hot = int(seconds * HOT_RPS)
    n_scan = int(seconds * SCAN_RPS)
    hot = Stream("hot", [hot_pool[i % len(hot_pool)]
                         for i in range(n_hot)], HOT_RPS, 0.0)
    scan = Stream("scan", scan_cells(n_scan, universe, seed), SCAN_RPS,
                  0.5)
    t0 = asyncio.run(_drive(port, [hot, scan], seconds))
    last = max((d for s in (hot, scan) for d in s.done if d is not None),
               default=t0)
    hot_ms = hot.latencies_ms(t0)
    scan_ms = scan.latencies_ms(t0)
    late = [(s.sent[i] - (t0 + s.due[i])) * 1e3
            for s in (hot, scan) for i in range(len(s.due))
            if s.sent[i] is not None]
    first = [(f - s) * 1e3 for f, s in zip(scan.first, scan.sent)
             if f is not None and s is not None]
    within = sum(1 for v in hot_ms if v <= HOT_LIMIT_MS)
    pairs = [(p, r) for s in (hot, scan)
             for p, r, ok in zip(s.payloads, s.records, s.ok) if ok]
    return {
        "wall_s": last - t0,
        "hot_ms": hot_ms, "scan_ms": scan_ms,
        "attempted": n_hot + n_scan,
        "failed": n_hot + n_scan - len(hot_ms) - len(scan_ms),
        "hot_within_limit_frac": within / n_hot,
        "late_p99_ms": quantile(late, 0.99) if late else 0.0,
        "first_cell_ms": quantile(first, 0.5) if first else 0.0,
        "pairs": pairs,
    }


def verify(work: str, pairs: list) -> list[str]:
    """Recompute every streamed record in-process (``child.py``)."""
    path = fresh_dir(work, "pairs") + ".json"
    out = path + ".out"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pairs, fh)
    env = child_env(fresh_dir(work, "cache"), fresh_dir(work, "runs"))
    try:
        proc = subprocess.run(
            child_argv("verify-serve", "--input", path, "--out", out,
                       *SERVE_SCALES),
            cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        raise BenchError("serve verification timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"serve verification exited {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)["problems"]


def _phase(work: str, universe: int, seed: int, seconds: float,
           setups: int, trace_path: str | None = None) -> dict:
    """Start-ups, then load on the last server; returns measurements."""
    setup_s = []
    for i in range(setups):
        before = speed_s()
        server, took = start_warm(work, universe,
                                  trace_path if i == setups - 1 else None)
        # corrected for the box's speed just before and after it
        setup_s.append(took * 2 * REF_S / (before + speed_s()))
        if i < setups - 1:
            try:
                server.stop()
            finally:
                server.kill()
    try:
        res = load(server.port, universe, seed, seconds)
        stats = server.request({"op": "stats"})[-1]["stats"]
        usage = server.stop()
    finally:
        server.kill()
    res.update(setup_s=setup_s, stats=stats,
               peak_rss_mb=usage.ru_maxrss / 1024.0,
               cpu_s=usage.ru_utime + usage.ru_stime)
    if trace_path:
        with open(server.out, encoding="utf-8") as fh:
            res["traced"] = json.load(fh)
    return res


def serve_run(seed: int, seconds: float, trace: bool, work: str,
              universe: int, trace_path: str | None) -> dict:
    """The serve-mixed workload (see the module docstring)."""
    plain = _phase(work, universe, seed, seconds,
                   1 if trace else SERVE_SETUPS)
    phases = [plain]
    if trace:
        phases.append(_phase(work, universe, seed, seconds, 1,
                             trace_path))
    problems: list[str] = []
    problems.extend(verify(work, [pair for ph in phases
                                  for pair in ph["pairs"]]))
    out = {"problems": problems,
           "attempted": sum(ph["attempted"] for ph in phases),
           "failed_ops": sum(ph["failed"] for ph in phases)}
    extra = {
        "hot_p50_ms": quantile(plain["hot_ms"], 0.5),
        "hot_p99_ms": quantile(plain["hot_ms"], 0.99),
        "hot_within_limit_frac": plain["hot_within_limit_frac"],
        "scan_p50_ms": quantile(plain["scan_ms"], 0.5),
        "scan_p90_ms": quantile(plain["scan_ms"], 0.9),
    }
    out["extra"] = extra
    out["notes"] = [
        f"open loop: hot {HOT_RPS:g}/s ({len(plain['hot_ms'])} answered), "
        f"scan {SCAN_RPS:g}/s ({len(plain['scan_ms'])} answered) for "
        f"{seconds:g}s; hot limit {HOT_LIMIT_MS:g} ms; latency_ms is the "
        f"scan median"]
    if not trace:
        out["metrics"] = {
            "setup_s": statistics.median(plain["setup_s"]),
            "wall_s": plain["wall_s"],
            "peak_rss_mb": plain["peak_rss_mb"],
            "latency_ms": extra["scan_p50_ms"],
        }
        return out
    traced = phases[1]
    layers = dict(traced["traced"]["layers"])
    problems.extend(traced["traced"]["integrity"])
    stats = traced["stats"]
    layers.update({
        "service.engine_cells": stats["engine_cells"],
        "service.dedupe_cached": stats["dedupe_cached"],
        "service.dedupe_inflight": stats["dedupe_inflight"],
        "service.batches": stats["batches"],
        "service.cells_per_batch": (stats["batched_cells"]
                                    / stats["batches"]
                                    if stats["batches"] else 0.0),
        "service.first_cell_ms": traced["first_cell_ms"],
        "serve.hot_p50_ms": extra["hot_p50_ms"],
        "serve.hot_p99_ms": extra["hot_p99_ms"],
        "serve.hot_within_limit_frac": extra["hot_within_limit_frac"],
        "serve.scan_p50_ms": extra["scan_p50_ms"],
        "serve.scan_p90_ms": extra["scan_p90_ms"],
        "loadgen.late_p99_ms": traced["late_p99_ms"],
        "trace.wall_s": traced["wall_s"],
        # the request schedule is fixed, so the wall is too: compare
        # the server's CPU time for the same requests instead
        "trace.overhead_frac": traced["cpu_s"] / plain["cpu_s"] - 1.0,
    })
    if layers["engine.runs"] != stats["engine_cells"]:
        problems.append(f"traced {layers['engine.runs']} engine runs, "
                        f"the server reports {stats['engine_cells']}")
    out["layers"] = layers
    out["notes"].append(f"chrome trace: {os.path.relpath(trace_path, ROOT)}")
    return out
