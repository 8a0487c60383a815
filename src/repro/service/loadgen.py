"""``repro load``: seeded, headless load generation for the service.

The generator drives a *factorial run table* -- every combination of
request **mix** x worker **concurrency**, each cell held for a fixed
**duration** -- against a running ``repro serve`` instance, and
publishes throughput and latency quantiles per factor cell
(``BENCH_service.json``).  Everything is derived from one seed: the
per-worker request streams are ``random.Random`` children keyed on
(mix, concurrency, worker), so two runs with the same seed issue the
same requests in the same per-worker order.

Request mixes (the workload factor):

``hot``
    A tiny pool of distinct cells requested over and over -- after the
    first completions every request is a cache or in-flight dedupe
    hit.  This is the service's steady state and the latency the CI
    budget polices.
``scan``
    Randomized machine x workload x seed-universe cells from the full
    request space -- mostly cold keys, exercising the batcher and the
    engine.
``stats``
    The ``stats`` op only: protocol + event-loop overhead floor.

An optional warm pass (one request per distinct hot cell, untimed)
runs before the first measured cell so ``hot`` measures the warm
cache, not first-touch kernel builds.

Latency is measured per *request* (send to ``done`` line, including
every streamed cell), in milliseconds; quantiles use the linear
interpolation of :func:`repro.obs.metrics.quantile`.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time

from repro.obs.metrics import quantile
from repro.service import protocol

SCHEMA = "repro-bench-service/v1"

MIXES = ("hot", "scan", "stats")

#: the ``hot`` pool: few distinct cells, both machine kinds
HOT_CELLS = (
    {"machine": "mta:2", "workload": "th-job-seq"},
    {"machine": "mta:2", "workload": "te-job-fg"},
    {"machine": "exemplar:4", "workload": "te-job-seq"},
    {"machine": "alpha", "workload": "th-job-seq"},
)

#: the ``scan`` request space
SCAN_MACHINES = ("alpha", "ppro:2", "ppro:4", "exemplar:2",
                 "exemplar:8", "exemplar:16", "mta:1", "mta:2", "mta:4")
SCAN_WORKLOADS = ("th-job-seq", "th-job-fg", "te-job-seq", "te-job-fg",
                  "th-job-ch-4-os", "th-job-ch-8-sw", "te-job-bl-4-os",
                  "te-job-bl-8-sw")


class ServiceClient:
    """A minimal NDJSON client for one connection (also used by tests)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_LINE_BYTES)
        sock = writer.get_extra_info("socket")
        if sock is not None:  # measured latency, not Nagle stalls
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(reader, writer)

    async def send(self, message: dict) -> None:
        self.writer.write(protocol.encode(message))
        await self.writer.drain()

    async def recv(self) -> dict:
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    async def request(self, message: dict) -> list[dict]:
        """Send one request, collect lines until its terminal line."""
        await self.send(message)
        lines: list[dict] = []
        while True:
            response = await self.recv()
            lines.append(response)
            if response.get("type") in ("done", "error", "stats",
                                        "hello", "bye"):
                return lines

    async def close(self) -> None:
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _mix_request(mix: str, rng: random.Random, counter: int) -> dict:
    """One seeded request of the given mix."""
    if mix == "stats":
        return {"op": "stats"}
    if mix == "hot":
        cell = HOT_CELLS[rng.randrange(len(HOT_CELLS))]
        return {"op": "simulate", "id": f"hot-{counter}",
                "cells": [dict(cell)]}
    if mix == "scan":
        cell = {
            "machine": SCAN_MACHINES[rng.randrange(len(SCAN_MACHINES))],
            "workload": SCAN_WORKLOADS[
                rng.randrange(len(SCAN_WORKLOADS))],
            "seed_offset": rng.randrange(3),
        }
        return {"op": "simulate", "id": f"scan-{counter}",
                "cells": [cell]}
    raise ValueError(f"unknown mix {mix!r}; known: {', '.join(MIXES)}")


async def _worker(host: str, port: int, mix: str, seed: str,
                  deadline: float, out: dict) -> None:
    """One load worker: its own connection, seeded request stream.

    ``seed`` is a string key; ``random.Random`` seeds str/bytes via a
    stable hash, so the stream is reproducible across processes
    (unlike ``hash()``, which is salted per process).
    """
    rng = random.Random(seed)
    client = await ServiceClient.connect(host, port)
    try:
        counter = 0
        while time.perf_counter() < deadline:
            message = _mix_request(mix, rng, counter)
            counter += 1
            t0 = time.perf_counter()
            lines = await client.request(message)
            out["latencies"].append(
                (time.perf_counter() - t0) * 1000.0)
            out["requests"] += 1
            for line in lines:
                if line.get("type") == "cell":
                    out["cells"] += 1
                elif line.get("type") == "error" or (
                        line.get("type") == "done"
                        and not line.get("ok", True)):
                    out["errors"] += 1
    finally:
        await client.close()


async def _warm(host: str, port: int) -> None:
    """Populate the cache with the hot pool (untimed)."""
    client = await ServiceClient.connect(host, port)
    try:
        await client.request({
            "op": "simulate", "id": "warm",
            "cells": [dict(c) for c in HOT_CELLS]})
    finally:
        await client.close()


def _latency_summary(latencies: list[float]) -> dict:
    if not latencies:
        return {"p50": None, "p95": None, "p99": None,
                "mean": None, "max": None}
    return {
        "p50": round(quantile(latencies, 0.50), 3),
        "p95": round(quantile(latencies, 0.95), 3),
        "p99": round(quantile(latencies, 0.99), 3),
        "mean": round(sum(latencies) / len(latencies), 3),
        "max": round(max(latencies), 3),
    }


async def run_load(host: str, port: int, *, mixes: list[str],
                   concurrencies: list[int], duration: float,
                   seed: int = 0, warm: bool = True) -> dict:
    """Run the factorial table; returns the benchmark payload."""
    for mix in mixes:
        if mix not in MIXES:
            raise ValueError(
                f"unknown mix {mix!r}; known: {', '.join(MIXES)}")
    if warm:
        await _warm(host, port)
    cells = []
    for mix in mixes:
        for concurrency in concurrencies:
            out = {"latencies": [], "requests": 0, "cells": 0,
                   "errors": 0}
            t0 = time.perf_counter()
            deadline = t0 + duration
            await asyncio.gather(*[
                _worker(host, port, mix,
                        f"{seed}:{mix}:{concurrency}:{w}",
                        deadline, out)
                for w in range(concurrency)])
            wall = time.perf_counter() - t0
            cells.append({
                "mix": mix,
                "concurrency": concurrency,
                "duration_s": round(wall, 3),
                "requests": out["requests"],
                "cells": out["cells"],
                "errors": out["errors"],
                "throughput_rps": round(out["requests"] / wall, 3)
                if wall > 0 else None,
                "latency_ms": _latency_summary(out["latencies"]),
            })
    # the server-side story of the same run
    client = await ServiceClient.connect(host, port)
    try:
        hello = (await client.request({"op": "hello"}))[-1]
        stats = (await client.request({"op": "stats"}))[-1]["stats"]
    finally:
        await client.close()
    return {
        "schema": SCHEMA,
        "seed": seed,
        "warm": warm,
        "duration_s": duration,
        "mixes": list(mixes),
        "concurrencies": list(concurrencies),
        "server": {k: hello.get(k) for k in
                   ("schema", "model_epoch", "threat_scale",
                    "terrain_scale", "jobs")},
        "factor_cells": cells,
        "server_stats": stats,
    }


def render_payload(payload: dict) -> str:
    """Human-readable factor-cell table."""
    lines = [f"service load (seed {payload['seed']}, "
             f"{payload['duration_s']}s per cell, "
             f"warm={payload['warm']})"]
    header = (f"  {'mix':<8} {'conc':>4} {'reqs':>6} {'cells':>6} "
              f"{'err':>4} {'rps':>8} {'p50ms':>8} {'p95ms':>8} "
              f"{'p99ms':>8}")
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for cell in payload["factor_cells"]:
        lat = cell["latency_ms"]

        def fmt(v):
            return f"{v:>8.1f}" if isinstance(v, (int, float)) \
                else f"{'-':>8}"

        lines.append(
            f"  {cell['mix']:<8} {cell['concurrency']:>4} "
            f"{cell['requests']:>6} {cell['cells']:>6} "
            f"{cell['errors']:>4} {fmt(cell['throughput_rps'])} "
            f"{fmt(lat['p50'])} {fmt(lat['p95'])} {fmt(lat['p99'])}")
    stats = payload.get("server_stats") or {}
    lines.append(
        f"  server: {stats.get('requests', 0)} requests, "
        f"{stats.get('cells', 0)} cells "
        f"({stats.get('dedupe_cached', 0)} cached, "
        f"{stats.get('dedupe_inflight', 0)} in-flight dedupes, "
        f"{stats.get('engine_cells', 0)} engine runs in "
        f"{stats.get('batches', 0)} batches)")
    return "\n".join(lines)
