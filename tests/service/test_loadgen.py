"""The load generator: determinism, factorial table, payload schema."""

import json
import random

from repro.obs.metrics import quantile
from repro.service import loadgen

from tests.service.conftest import run_async, serve_ctx


def test_mix_request_streams_are_seed_deterministic():
    def stream(seed, mix, n=25):
        rng = random.Random(seed)
        return [loadgen._mix_request(mix, rng, i) for i in range(n)]

    for mix in loadgen.MIXES:
        assert stream("0:a", mix) == stream("0:a", mix)
    assert stream("0:a", "scan") != stream("1:b", "scan")
    # hot requests stay inside the hot pool
    pool = {json.dumps(c, sort_keys=True) for c in loadgen.HOT_CELLS}
    for message in stream("0:a", "hot"):
        assert json.dumps(message["cells"][0], sort_keys=True) in pool


def test_latency_quantiles_interpolate():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    assert quantile(samples, 0.0) == 1.0
    assert quantile(samples, 1.0) == 100.0
    assert quantile(samples, 0.5) == 50.5
    summary = loadgen._latency_summary(samples)
    assert summary["p50"] == 50.5
    assert summary["p99"] == 99.01
    assert summary["max"] == 100.0
    assert loadgen._latency_summary([])["p99"] is None


def test_run_load_factorial_payload():
    async def body():
        async with serve_ctx() as svc:
            payload = await loadgen.run_load(
                "127.0.0.1", svc.bound_port,
                mixes=["hot", "stats"], concurrencies=[1, 2],
                duration=0.3, seed=7)
            assert payload["schema"] == loadgen.SCHEMA
            assert payload["seed"] == 7 and payload["warm"]
            cells = payload["factor_cells"]
            # the full factorial: every mix x concurrency combination
            assert [(c["mix"], c["concurrency"]) for c in cells] == \
                [("hot", 1), ("hot", 2), ("stats", 1), ("stats", 2)]
            for cell in cells:
                assert cell["requests"] > 0
                assert cell["errors"] == 0
                assert cell["throughput_rps"] > 0
                assert cell["latency_ms"]["p50"] is not None
                assert cell["latency_ms"]["p50"] <= \
                    cell["latency_ms"]["p95"] <= \
                    cell["latency_ms"]["p99"]
            stats = payload["server_stats"]
            # the warm pass computed the hot pool; measured hot
            # requests then dedupe against cache or in-flight work
            assert stats["engine_cells"] == len(loadgen.HOT_CELLS)
            assert stats["dedupe_cached"] + \
                stats["dedupe_inflight"] > 0
            assert stats["batches"] > 0
            assert payload["server"]["schema"] == "repro-service/v1"
            # the whole payload must be JSON-serializable as-is
            assert json.loads(json.dumps(payload)) == payload
    run_async(body())


def test_load_cli_against_live_server(tmp_path, capsys):
    """`repro load --connect` end to end, writing BENCH_service.json."""
    import asyncio

    from repro.__main__ import main
    from repro.service.server import ReproService

    from tests.service.conftest import SCALES

    async def session():
        svc = ReproService(**SCALES)
        await svc.start()
        out = tmp_path / "BENCH_service.json"
        status = await asyncio.to_thread(
            main, ["load", "--connect", f"127.0.0.1:{svc.bound_port}",
                   "--mix", "hot", "--concurrency", "1",
                   "--duration", "0.3", "--seed", "0",
                   "--json", str(out)])
        svc.request_shutdown("test")
        await svc.serve_until_shutdown()
        return status, out

    status, out = asyncio.run(asyncio.wait_for(session(), 120))
    assert status == 0
    text = capsys.readouterr().out
    assert "service load (seed 0" in text
    assert f"wrote {out}" in text
    payload = json.loads(out.read_text())
    assert payload["schema"] == loadgen.SCHEMA
    assert payload["factor_cells"][0]["mix"] == "hot"


def test_load_cli_rejects_bad_arguments(capsys):
    from repro.__main__ import main

    assert main(["load", "--connect", "nonsense"]) == 2
    assert main(["load", "--connect", "127.0.0.1:1",
                 "--concurrency", "x"]) == 2
    assert main(["load", "--connect", "127.0.0.1:1",
                 "--mix", "warp"]) == 2
    err = capsys.readouterr().err
    assert "HOST:PORT" in err and "unknown mix" in err


def test_load_cli_unreachable_server(capsys):
    from repro.__main__ import main

    # a port nothing listens on: report, do not traceback
    status = main(["load", "--connect", "127.0.0.1:1",
                   "--mix", "stats", "--duration", "0.1"])
    assert status == 2
    assert "cannot reach" in capsys.readouterr().err
