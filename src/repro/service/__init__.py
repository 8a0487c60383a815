"""Simulation-as-a-service: the asyncio job server and load harness.

``repro serve`` exposes the simulation harness as a long-running
network service (newline-delimited JSON over TCP; see
:mod:`repro.service.protocol` for the wire format and the rationale),
with request dedupe against the content-addressed result cache,
in-flight request coalescing, one engine job per request through the
cell-granular parallel scheduler, and run-store persistence of every
session.
``repro load`` drives it with seeded factorial load tables and
publishes ``BENCH_service.json``.
"""

from repro.service.batcher import CellBatcher
from repro.service.protocol import ProtocolError
from repro.service.server import ReproService

__all__ = ["CellBatcher", "ProtocolError", "ReproService"]
