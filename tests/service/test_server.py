"""Server behaviour: streaming, dedupe, disconnects, lifecycle."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.harness.rundir import RunWriter, ensure_runs_root
from repro.service.loadgen import ServiceClient
from repro.__main__ import main

from tests.service.conftest import run_async, serve_ctx

MTA_CELL = {"machine": "mta:2", "workload": "th-job-seq"}


# ----------------------------------------------------------------------
# request validation on a live connection
# ----------------------------------------------------------------------

def test_malformed_payload_keeps_connection_usable():
    async def body():
        async with serve_ctx() as svc:
            client = await ServiceClient.connect("127.0.0.1",
                                                 svc.bound_port)
            # raw junk, a non-object, and a bad op -- each one error
            # line, none fatal to the connection
            client.writer.write(b"this is not json\n")
            await client.writer.drain()
            assert (await client.recv())["type"] == "error"
            client.writer.write(b"[1,2,3]\n")
            await client.writer.drain()
            assert (await client.recv())["type"] == "error"
            response = (await client.request({"op": "warp"}))[-1]
            assert response["type"] == "error"
            assert "unknown op" in response["error"]
            # still usable
            hello = (await client.request({"op": "hello"}))[-1]
            assert hello["type"] == "hello"
            await client.close()
            assert svc.counters.errors == 3
    run_async(body())


def test_unknown_machine_and_workload_reject_request():
    async def body():
        async with serve_ctx() as svc:
            client = await ServiceClient.connect("127.0.0.1",
                                                 svc.bound_port)
            for cells, needle in (
                    ([{"machine": "cray", "workload": "th-job-seq"}],
                     "unknown machine family"),
                    ([{"machine": "mta:2", "workload": "vortex"}],
                     "unknown workload"),
                    ([], "non-empty"),
                    ("nope", "non-empty")):
                response = (await client.request(
                    {"op": "simulate", "id": "r", "cells": cells}))[-1]
                assert response["type"] == "error"
                assert needle in response["error"]
                assert response["id"] == "r" or cells in ([], "nope")
            # a bad cell rejects the whole request before any engine
            # work: no cells were admitted
            assert svc.counters.cells == 0
            await client.close()
    run_async(body())


# ----------------------------------------------------------------------
# result streaming + dedupe
# ----------------------------------------------------------------------

def test_simulate_streams_cells_then_done():
    async def body():
        async with serve_ctx() as svc:
            client = await ServiceClient.connect("127.0.0.1",
                                                 svc.bound_port)
            lines = await client.request({
                "op": "simulate", "id": "r1",
                "cells": [MTA_CELL,
                          {"machine": "alpha",
                           "workload": "th-job-seq"}]})
            assert [ln["type"] for ln in lines] == \
                ["cell", "cell", "done"]
            done = lines[-1]
            assert done["id"] == "r1" and done["ok"]
            assert done["n_cells"] == 2 and done["n_sent"] == 2
            for ln in lines[:-1]:
                cell = ln["cell"]
                assert cell["seconds"] > 0
                assert cell["key"] and cell["stats"]
            # same request again: answered from the persistent cache
            again = await client.request({
                "op": "simulate", "id": "r2", "cells": [MTA_CELL]})
            assert [ln["type"] for ln in again] == ["cell", "done"]
            assert svc.counters.dedupe_cached == 1
            first = next(ln for ln in lines
                         if ln["cell"]["machine"].startswith("Tera"))
            assert again[0]["cell"]["seconds"] == \
                first["cell"]["seconds"]
            await client.close()
            assert svc.counters.engine_cells == 2
    run_async(body())


def _hold_engine(svc) -> threading.Event:
    """Park the engine thread until the returned event is set, so
    requests submitted meanwhile are all in flight together."""
    gate = threading.Event()
    svc.batcher._engine.submit(gate.wait, 60)
    return gate


async def _release_after(svc, gate: threading.Event,
                         n_cells: int) -> None:
    """Unpark the engine once ``n_cells`` cells have been submitted."""
    while svc.counters.cells < n_cells:
        await asyncio.sleep(0.005)
    gate.set()


def _assert_cells_accounted(counters) -> None:
    """The ServiceCounters invariant at a quiescent point."""
    assert counters.cells == (counters.dedupe_cached
                              + counters.dedupe_inflight
                              + counters.engine_cells)


def test_identical_concurrent_requests_share_one_engine_run():
    """Two clients, same cell, both submitted while it is in flight:
    one engine run, two result streams (the in-flight dedupe
    contract)."""
    async def body():
        async with serve_ctx() as svc:
            a = await ServiceClient.connect("127.0.0.1", svc.bound_port)
            b = await ServiceClient.connect("127.0.0.1", svc.bound_port)
            request = {"op": "simulate", "id": "dup", "cells": [MTA_CELL]}
            gate = _hold_engine(svc)
            lines_a, lines_b, _ = await asyncio.gather(
                a.request(dict(request)), b.request(dict(request)),
                _release_after(svc, gate, 2))
            for lines in (lines_a, lines_b):
                assert [ln["type"] for ln in lines] == ["cell", "done"]
            assert lines_a[0]["cell"] == lines_b[0]["cell"]
            assert svc.counters.engine_cells == 1
            assert svc.counters.dedupe_inflight == 1
            assert svc.counters.dedupe_cached == 0
            assert svc.counters.batches == 1
            _assert_cells_accounted(svc.counters)
            await a.close()
            await b.close()
    run_async(body())


def test_disconnect_mid_stream_salvages_batch_for_others(tmp_path):
    """A subscriber vanishing must not sink the shared engine job: the
    other subscriber still gets every cell, and the session's run
    directory records them."""
    async def body(run):
        async with serve_ctx(run=run) as svc:
            cells = [
                {"machine": "mta:2", "workload": "th-job-seq"},
                {"machine": "mta:2", "workload": "te-job-seq"},
                {"machine": "alpha", "workload": "th-job-seq"},
                {"machine": "exemplar:4", "workload": "te-job-seq"},
            ]
            request = {"op": "simulate", "id": "s", "cells": cells}
            quitter = await ServiceClient.connect("127.0.0.1",
                                                  svc.bound_port)
            stayer = await ServiceClient.connect("127.0.0.1",
                                                 svc.bound_port)
            gate = _hold_engine(svc)
            # the quitter requests and hangs up without reading a byte
            await quitter.send(dict(request))
            await quitter.close()
            lines, _ = await asyncio.gather(
                stayer.request(dict(request)),
                _release_after(svc, gate, 2 * len(cells)))
            assert lines[-1]["type"] == "done" and lines[-1]["ok"]
            got = {ln["cell"]["job"] for ln in lines[:-1]}
            assert len(lines) == len(cells) + 1
            assert len(got) >= 2  # both benchmarks made it through
            # every distinct key ran exactly once despite two requests
            assert svc.counters.engine_cells == len(cells)
            assert svc.counters.dedupe_inflight == len(cells)
            assert svc.counters.batches == 1
            _assert_cells_accounted(svc.counters)
            await stayer.close()
    run = RunWriter("serve", {})
    run_async(body(run))
    run.exit_status = 0
    directory = run.finish()
    with open(os.path.join(directory, "cells.jsonl"),
              encoding="utf-8") as fh:
        recorded = [json.loads(line) for line in fh]
    assert len(recorded) == 4
    assert all(rec["source"] == "service" for rec in recorded)


def test_faulted_cell_streams_beside_healthy_and_recomputes():
    """A faulted cell rides the same engine job as a healthy one; its
    record carries the realized fault schedule and is never cached."""
    faulted = dict(MTA_CELL, faults="streams:0.5:0.8")
    async def body():
        async with serve_ctx() as svc:
            client = await ServiceClient.connect("127.0.0.1",
                                                 svc.bound_port)
            lines = await client.request({
                "op": "simulate", "id": "f1",
                "cells": [faulted, {"machine": "alpha",
                                    "workload": "th-job-seq"}]})
            assert [ln["type"] for ln in lines] == \
                ["cell", "cell", "done"]
            assert lines[-1]["ok"] and lines[-1]["n_sent"] == 2
            kinds = {ln["cell"]["kind"]: ln["cell"] for ln in lines[:-1]}
            assert set(kinds) == {"faulted-mta", "conventional"}
            assert "fault_schedule" in kinds["faulted-mta"]
            assert "fault_schedule" not in kinds["conventional"]
            assert svc.counters.faulted_cells == 1
            assert svc.counters.batches == 1
            assert svc.counters.batched_cells == 2
            # uncached by design: the same faulted request recomputes
            again = await client.request({
                "op": "simulate", "id": "f2", "cells": [faulted]})
            assert [ln["type"] for ln in again] == ["cell", "done"]
            assert again[0]["cell"]["fault_schedule"] == \
                kinds["faulted-mta"]["fault_schedule"]
            assert svc.counters.faulted_cells == 2
            assert svc.counters.dedupe_cached == 0
            assert svc.counters.engine_cells == 3
            _assert_cells_accounted(svc.counters)
            await client.close()
    run_async(body())


def test_engine_job_failure_fails_request_not_connection(monkeypatch):
    """A raising engine job ends its request with a failed 'done'
    line; the connection and the service stay usable."""
    from repro.harness import parallel

    real_run_cells = parallel.run_cells

    def boom(*args, **kwargs):
        raise RuntimeError("engine exploded")

    async def body():
        async with serve_ctx() as svc:
            client = await ServiceClient.connect("127.0.0.1",
                                                 svc.bound_port)
            monkeypatch.setattr(parallel, "run_cells", boom)
            lines = await client.request({
                "op": "simulate", "id": "x", "cells": [MTA_CELL]})
            assert [ln["type"] for ln in lines] == ["done"]
            done = lines[-1]
            assert done["ok"] is False and done["n_sent"] == 0
            assert any("engine exploded" in e for e in done["errors"])
            assert svc.counters.engine_cells == 0
            monkeypatch.setattr(parallel, "run_cells", real_run_cells)
            lines = await client.request({
                "op": "simulate", "id": "y", "cells": [MTA_CELL]})
            assert [ln["type"] for ln in lines] == ["cell", "done"]
            assert lines[-1]["ok"]
            assert svc.counters.engine_cells == 1
            await client.close()
    run_async(body())


def test_sweep_serves_registry_experiments():
    async def body():
        async with serve_ctx() as svc:
            client = await ServiceClient.connect("127.0.0.1",
                                                 svc.bound_port)
            bad = (await client.request({
                "op": "sweep", "id": "s0",
                "experiments": ["table99"]}))[-1]
            assert bad["type"] == "error"
            assert "table99" in bad["error"]
            lines = await client.request({
                "op": "sweep", "id": "s1", "experiments": ["table3"]})
            done = lines[-1]
            assert done["type"] == "done" and done["ok"]
            assert done["experiments"] == ["table3"]
            assert done["n_cells"] == len(lines) - 1 > 0
            await client.close()
    run_async(body())


# ----------------------------------------------------------------------
# startup / shutdown lifecycle
# ----------------------------------------------------------------------

def test_serve_rejects_unwritable_runs_root(tmp_path, monkeypatch,
                                            capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    monkeypatch.setenv("REPRO_RUNS_DIR", str(blocker / "runs"))
    status = main(["serve", "--port", "0"])
    err = capsys.readouterr().err
    assert status == 2
    assert "REPRO_RUNS_DIR" in err


def test_ensure_runs_root_creates_and_probes(tmp_path, monkeypatch):
    root = tmp_path / "fresh" / "runs"
    monkeypatch.setenv("REPRO_RUNS_DIR", str(root))
    assert ensure_runs_root() == str(root)
    assert root.is_dir() and not any(root.iterdir())
    monkeypatch.setenv("REPRO_NO_RUNS", "1")
    assert ensure_runs_root() is None


def test_port_zero_prints_bound_port_and_sigterm_drains(tmp_path):
    """The CI contract end to end, against a real subprocess: ephemeral
    port on stdout before accepting, served requests, SIGTERM ->
    graceful drain -> exit 0."""
    env = dict(os.environ,
               PYTHONPATH="src",
               REPRO_CACHE_DIR=str(tmp_path / "cache"),
               REPRO_RUNS_DIR=str(tmp_path / "runs"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro",
         "--threat-scale", "0.01", "--terrain-scale", "0.02",
         "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        text=True)
    try:
        banner = proc.stdout.readline()
        assert "repro serve: listening on 127.0.0.1:" in banner
        port = int(banner.rsplit(":", 1)[1])
        assert port > 0

        async def talk():
            client = await ServiceClient.connect("127.0.0.1", port)
            lines = await client.request({
                "op": "simulate", "id": "r", "cells": [MTA_CELL]})
            assert lines[-1]["type"] == "done" and lines[-1]["ok"]
            await client.close()
        run_async(talk())
        proc.send_signal(signal.SIGTERM)
        status = proc.wait(timeout=60)
        stderr = proc.stderr.read()
        assert status == 0, stderr
        assert "drained" in stderr
        run_dirs = list((tmp_path / "runs").iterdir())
        run_dirs = [d for d in run_dirs if d.is_dir()]
        assert len(run_dirs) == 1
        manifest = json.loads(
            (run_dirs[0] / "manifest.json").read_text())
        assert manifest["command"] == "serve"
        assert manifest["status"] == "ok"
        assert manifest["n_cells"] == 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_shutdown_op_stops_the_server():
    async def body():
        svc_box = {}

        async def run_service():
            from tests.service.conftest import SCALES
            from repro.service.server import ReproService
            svc = ReproService(**SCALES)
            svc_box["svc"] = svc
            await svc.start()
            await svc.serve_until_shutdown()

        server_task = asyncio.create_task(run_service())
        while "svc" not in svc_box \
                or svc_box["svc"].bound_port is None:
            await asyncio.sleep(0.01)
        client = await ServiceClient.connect(
            "127.0.0.1", svc_box["svc"].bound_port)
        bye = (await client.request({"op": "shutdown"}))[-1]
        assert bye["type"] == "bye"
        await client.close()
        await asyncio.wait_for(server_task, timeout=30)
    run_async(body())
