"""Service-test fixtures: isolated cache + an in-process server.

No pytest-asyncio in the dependency set: tests are plain sync
functions that drive their own event loop with ``asyncio.run`` (each
wrapped in a generous ``wait_for`` so a deadlocked server fails the
test instead of hanging the suite).
"""

import asyncio
import contextlib

import pytest

from repro.service.server import ReproService

#: tiny kernel scales -- cells cost milliseconds, not seconds
SCALES = dict(threat_scale=0.01, terrain_scale=0.02)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "svc-cache"))
    # drop the process-wide BenchmarkData memos: a `sim-<key>` memo
    # from an earlier test would satisfy _simulate without writing
    # this test's fresh cache, making dedupe counters untestable
    from repro.harness.runner import default_data

    default_data.cache_clear()


@contextlib.asynccontextmanager
async def serve_ctx(**kwargs):
    """Boot a service on an ephemeral port; drain it on exit."""
    kwargs.setdefault("threat_scale", SCALES["threat_scale"])
    kwargs.setdefault("terrain_scale", SCALES["terrain_scale"])
    service = ReproService(**kwargs)
    await service.start()
    try:
        yield service
    finally:
        service.request_shutdown("test teardown")
        await service.serve_until_shutdown()


def run_async(coro, timeout=120.0):
    """Drive one async test body with a hang guard."""
    return asyncio.run(asyncio.wait_for(coro, timeout))
