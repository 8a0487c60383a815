"""The ``repro serve`` asyncio job server (simulation-as-a-service).

One process, one event loop, one engine thread: connections speak the
newline-delimited JSON protocol of :mod:`repro.service.protocol`,
validated requests become cell descriptors, and the
:class:`~repro.service.batcher.CellBatcher` dedupes them and runs each
request's cache misses as one engine job.  Per-cell results stream back
the moment they land -- a request for N cells produces N ``cell`` lines
in completion order, then one ``done`` line.

Durability: the whole service session is one run-store run.  Every
record the engine produces lands in the session's ``cells.jsonl`` (via
the batcher's ``on_record`` hook, deduplicated by content-addressed
key exactly like a ``repro all`` run), and shutdown finalizes the
manifest with the service counters as the report payload -- so
``repro runs list/query`` sees served work the same way it sees CLI
sweeps.

Shutdown: SIGTERM/SIGINT (or a client ``shutdown`` op) stops
accepting connections, lets busy requests finish, drains the batcher,
finalizes the run directory and exits 0.

Startup: the run-artifact root is probed *before* the socket opens
(:func:`repro.harness.rundir.ensure_runs_root`) so a bad
``REPRO_RUNS_DIR`` rejects startup with an actionable error instead of
failing hours later; and with ``--port 0`` the actually-bound port is
printed to stdout (``repro serve: listening on HOST:PORT``) before the
first connection is accepted, which is what lets harnesses (CI, the
load generator, tests) start the server on an ephemeral port and
discover it from the output.
"""

from __future__ import annotations

import asyncio
import signal
import socket
import sys
from typing import Optional

from repro.harness.registry import EXPERIMENT_IDS
from repro.harness.rundir import RunWriter
from repro.obs.metrics import ServiceCounters
from repro.service import protocol
from repro.service.batcher import CellBatcher


def _set_nodelay(writer: asyncio.StreamWriter) -> None:
    """Disable Nagle on a stream connection.

    The protocol is small write / small read request-response; with
    Nagle on, its interaction with delayed ACKs stalls every exchange
    ~40ms -- dwarfing the sub-millisecond cached-cell service time.
    """
    sock = writer.get_extra_info("socket")
    if sock is not None and sock.family in (socket.AF_INET,
                                            socket.AF_INET6):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class ReproService:
    """Service state shared across connections."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 threat_scale: float = 0.02, terrain_scale: float = 0.05,
                 jobs: int = 1, run: Optional[RunWriter] = None):
        self.host = host
        self.port = port
        self.threat_scale = threat_scale
        self.terrain_scale = terrain_scale
        self.jobs = jobs
        self.counters = ServiceCounters()
        self.run = run
        self.batcher = CellBatcher(
            jobs=jobs, counters=self.counters, on_record=self._persist)
        self._server: Optional[asyncio.Server] = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        self.bound_port: Optional[int] = None

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _persist(self, record: dict) -> None:
        if self.run is not None:
            self.run.record("service", record)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind + listen, announce the port, then begin accepting.

        The socket is created *listening* before the banner prints, so
        a client that connects the instant it reads the port queues in
        the accept backlog instead of being refused -- the contract CI
        and the load generator rely on: the actually-bound port (which
        matters with ``--port 0``) reaches stdout before the first
        connection is accepted, and connecting right after reading it
        always succeeds.
        """
        await self.batcher.start()
        sock = socket.create_server((self.host, self.port), backlog=128)
        sock.setblocking(False)
        self.bound_port = sock.getsockname()[1]
        print(f"repro serve: listening on {self.host}:{self.bound_port}",
              flush=True)
        self._server = await asyncio.start_server(
            self._on_connection, sock=sock,
            limit=protocol.MAX_LINE_BYTES)

    def request_shutdown(self, why: str = "signal") -> None:
        if not self._shutdown.is_set():
            print(f"repro serve: shutdown requested ({why}), draining",
                  file=sys.stderr, flush=True)
            self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Run until a shutdown request, then drain gracefully."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, self.request_shutdown, signal.Signals(sig).name)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix event loop
        try:
            await self._shutdown.wait()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(sig)
                except (NotImplementedError, RuntimeError):
                    pass
        # 1. stop accepting new connections
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        # 2. let busy requests finish (they stop admitting new work
        #    the moment the batcher closes below, so this converges)
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        # 3. drain the engine
        await self.batcher.drain()
        print(f"repro serve: drained "
              f"({self.counters.requests} requests, "
              f"{self.counters.cells} cells, "
              f"{self.counters.engine_cells} engine runs)",
              file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self.counters.connections += 1
        _set_nodelay(writer)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            self.counters.disconnects += 1
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_or_shutdown(self,
                                reader: asyncio.StreamReader) -> bytes:
        """Next request line, or ``b""`` once shutdown is requested.

        Draining must not wait on idle keep-alive connections: a
        connection parked in ``readline`` has no request in flight, so
        shutdown closes it immediately, while a connection busy in a
        handler finishes its request first (this race only runs
        between requests).
        """
        line_task = asyncio.ensure_future(reader.readline())
        shut_task = asyncio.ensure_future(self._shutdown.wait())
        try:
            done, _ = await asyncio.wait(
                {line_task, shut_task},
                return_when=asyncio.FIRST_COMPLETED)
            if line_task in done:
                return line_task.result()
            return b""
        finally:
            for task in (line_task, shut_task):
                if not task.done():
                    task.cancel()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        while not reader.at_eof():
            try:
                line = await self._read_or_shutdown(reader)
            except (ValueError, asyncio.LimitOverrunError):
                self.counters.errors += 1
                await self._send(writer, {
                    "type": "error", "id": None,
                    "error": "request line exceeds "
                             f"{protocol.MAX_LINE_BYTES} bytes"})
                return
            if not line:
                return
            if not line.strip():
                continue
            try:
                message = protocol.decode(line)
            except protocol.ProtocolError as exc:
                self.counters.errors += 1
                await self._send(writer, {"type": "error", "id": None,
                                          "error": str(exc)})
                continue
            if not await self._dispatch(message, writer):
                return

    async def _dispatch(self, message: dict,
                        writer: asyncio.StreamWriter) -> bool:
        """Handle one request; False ends the connection."""
        op = message.get("op")
        request_id = message.get("id")
        if op == "hello":
            await self._send(writer, protocol.hello_payload(
                threat_scale=self.threat_scale,
                terrain_scale=self.terrain_scale, jobs=self.jobs))
            return True
        if op == "stats":
            await self._send(writer, {"type": "stats",
                                      "stats": self.stats()})
            return True
        if op == "shutdown":
            await self._send(writer, {"type": "bye"})
            self.request_shutdown("client request")
            return False
        if op == "simulate":
            await self._handle_simulate(message, writer)
            return True
        if op == "sweep":
            await self._handle_sweep(message, writer)
            return True
        self.counters.errors += 1
        await self._send(writer, {
            "type": "error", "id": request_id,
            "error": f"unknown op {op!r}; known: hello, simulate, "
                     f"sweep, stats, shutdown"})
        return True

    # ------------------------------------------------------------------
    # simulate / sweep
    # ------------------------------------------------------------------
    def _request_scales(self, message: dict) -> tuple[float, float]:
        threat = message.get("threat_scale", self.threat_scale)
        terrain = message.get("terrain_scale", self.terrain_scale)
        for name, value in (("threat_scale", threat),
                            ("terrain_scale", terrain)):
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or not 0 < value <= 1:
                raise protocol.ProtocolError(
                    f"{name} must be a number in (0, 1], got {value!r}")
        return float(threat), float(terrain)

    async def _handle_simulate(self, message: dict,
                               writer: asyncio.StreamWriter) -> None:
        request_id = message.get("id")
        self.counters.requests += 1
        try:
            threat, terrain = self._request_scales(message)
            payloads = message.get("cells")
            if not isinstance(payloads, list) or not payloads:
                raise protocol.ProtocolError(
                    "simulate needs a non-empty 'cells' array")
            cells = [protocol.cell_from_payload(
                p, threat_scale=threat, terrain_scale=terrain)
                for p in payloads]
        except protocol.ProtocolError as exc:
            self.counters.errors += 1
            await self._send(writer, {"type": "error", "id": request_id,
                                      "error": str(exc)})
            return
        await self._stream_cells(request_id, cells, writer)

    async def _handle_sweep(self, message: dict,
                            writer: asyncio.StreamWriter) -> None:
        """Registry experiments or a named factorial sweep as a request.

        With ``"sweep": "<name>"`` the request expands one declarative
        grid from :data:`repro.c3i.sweeps.SWEEPS` -- the same
        :func:`~repro.c3i.sweeps.expand_cells` path `repro sweep`
        takes, so the served records are byte-identical per key to a
        local run, and the done line carries the expansion fingerprint.

        Otherwise ``"experiments"`` plans registry experiments exactly
        like ``repro all -j``
        (:func:`~repro.harness.parallel.experiment_cells`) and streams
        every planned cell -- so a served full-registry sweep produces,
        per content-addressed key, the same records a local ``repro
        all`` writes.  An experiment that fails while it is planned
        rejects the request with one ``error`` line.
        """
        from repro.harness.parallel import (
            PlanningError,
            _cell,
            experiment_cells,
        )
        from repro.harness.runner import default_data

        request_id = message.get("id")
        self.counters.requests += 1
        named = message.get("sweep")
        if named is not None:
            try:
                threat, terrain = self._request_scales(message)
                if not isinstance(named, str):
                    raise protocol.ProtocolError(
                        f"sweep name must be a string, got {named!r}")
                from repro.c3i import sweeps as sweep_defs

                try:
                    sweep = sweep_defs.get_sweep(named)
                except KeyError as exc:
                    raise protocol.ProtocolError(str(exc.args[0]))
            except protocol.ProtocolError as exc:
                self.counters.errors += 1
                await self._send(writer, {"type": "error",
                                          "id": request_id,
                                          "error": str(exc)})
                return
            loop = asyncio.get_running_loop()
            cells = await loop.run_in_executor(
                self.batcher._engine,
                lambda: sweep_defs.expand_cells(
                    sweep, threat_scale=threat, terrain_scale=terrain))
            await self._stream_cells(
                request_id, cells, writer,
                extra={"sweep": sweep.name,
                       "fingerprint":
                           sweep_defs.expansion_fingerprint(sweep)})
            return
        try:
            threat, terrain = self._request_scales(message)
            wanted = message.get("experiments", "all")
            if wanted == "all":
                ids = list(EXPERIMENT_IDS)
            elif isinstance(wanted, list) and wanted \
                    and all(isinstance(e, str) for e in wanted):
                unknown = sorted(set(wanted) - set(EXPERIMENT_IDS))
                if unknown:
                    raise protocol.ProtocolError(
                        f"unknown experiments {unknown}; see "
                        f"'repro list'")
                ids = list(dict.fromkeys(wanted))
            else:
                raise protocol.ProtocolError(
                    "sweep needs experiments: \"all\" or a non-empty "
                    "array of experiment ids")
        except protocol.ProtocolError as exc:
            self.counters.errors += 1
            await self._send(writer, {"type": "error", "id": request_id,
                                      "error": str(exc)})
            return
        # plan on the engine thread -- planning runs the kernels once
        loop = asyncio.get_running_loop()

        def plan() -> list[dict]:
            data = default_data(threat, terrain)
            cells: dict[str, dict] = {}
            for eid in ids:
                for sim in experiment_cells(eid, data):
                    cell = _cell(sim)
                    if cell is not None and sim.key not in cells:
                        cells[sim.key] = dict(cell, threat_scale=threat,
                                              terrain_scale=terrain)
            return list(cells.values())

        try:
            cells = await loop.run_in_executor(self.batcher._engine,
                                               plan)
        except PlanningError as exc:
            self.counters.errors += 1
            await self._send(writer, {"type": "error", "id": request_id,
                                      "error": str(exc)})
            return
        await self._stream_cells(request_id, cells, writer,
                                 extra={"experiments": ids})

    async def _stream_cells(self, request_id, cells: list[dict],
                            writer: asyncio.StreamWriter,
                            extra: Optional[dict] = None) -> None:
        """Submit cells, stream each record as it lands, then 'done'.

        A subscriber disconnecting mid-stream only stops *its* writes:
        the futures are shared with the engine job, which runs to
        completion for the cache, the run store and any other
        subscribers.
        """
        try:
            futures = self.batcher.submit(cells)
        except RuntimeError as exc:  # shutting down
            self.counters.errors += 1
            await self._send(writer, {"type": "error", "id": request_id,
                                      "error": str(exc)})
            return
        connected = True
        n_sent = 0
        failures: list[str] = []
        pending = {asyncio.ensure_future(asyncio.shield(f))
                   for f in futures}
        seen: set[str] = set()
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED)
            for fut in done:
                exc = fut.exception()
                if exc is not None:
                    failures.append(str(exc).splitlines()[0][:500])
                    continue
                record = fut.result()
                if record["key"] in seen:
                    continue  # two request cells deduped to one key
                seen.add(record["key"])
                if not connected:
                    continue  # keep draining for the shared job
                schedule = record.get("fault_schedule")
                try:
                    await self._send(writer, protocol.record_response(
                        request_id, record, schedule))
                    n_sent += 1
                except (ConnectionError, OSError):
                    connected = False
                    self.counters.disconnects += 1
        if not connected:
            return
        done_line = {
            "type": "done", "id": request_id, "n_cells": len(cells),
            "n_sent": n_sent, "ok": not failures,
        }
        if failures:
            done_line["errors"] = failures[:10]
            self.counters.errors += len(failures)
        if extra:
            done_line.update(extra)
        await self._send(writer, done_line)

    # ------------------------------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter,
                    message: dict) -> None:
        writer.write(protocol.encode(message))
        await writer.drain()

    def stats(self) -> dict:
        body = self.counters.snapshot()
        body["inflight"] = len(self.batcher._inflight)
        if self.run is not None:
            body["run_id"] = self.run.run_id
        return body


async def serve(*, host: str, port: int, threat_scale: float,
                terrain_scale: float, jobs: int,
                run: Optional[RunWriter]) -> int:
    """``repro serve`` body: start, run until shutdown, drain."""
    service = ReproService(
        host=host, port=port, threat_scale=threat_scale,
        terrain_scale=terrain_scale, jobs=jobs, run=run)
    await service.start()
    await service.serve_until_shutdown()
    if run is not None:
        run.write_report(payload={
            "schema": "repro-service-session/v1",
            "counters": service.counters.snapshot(),
        })
    return 0
