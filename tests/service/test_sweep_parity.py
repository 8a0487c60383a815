"""The acceptance contract: served results == ``repro all`` results.

Two runs over the same seed universe and scales, one through the CLI
harness and one through the service, must agree *byte for byte* per
simulation cell -- same content-addressed keys, same seconds, same
stats.  Both directions are exercised:

* cold: the service computes into an empty cache; a CLI-style
  ``run_experiments`` then computes the same registry subset into a
  *different* empty cache, so every number is recomputed independently.
* warm: a served sweep over the cache the CLI run populated answers
  entirely from dedupe, returning identical records without touching
  the engine.
"""

import json

import pytest

from repro.harness.parallel import run_experiments
from repro.harness.runner import default_data
from repro.service.loadgen import ServiceClient

from tests.service.conftest import run_async, serve_ctx

pytestmark = pytest.mark.slow  # two full pipeline passes

SCALES = dict(threat_scale=0.01, terrain_scale=0.02)
#: a registry subset spanning both benchmarks, all machine families,
#: parameterized recipes and alternative seed universes
EXPERIMENTS = ["table3", "table5", "table11", "seed-robustness"]


def _normalize(record):
    """One cell record as JSON-comparable bytes-equivalent data."""
    body = {k: record[k] for k in ("key", "kind", "machine", "job",
                                   "seconds", "seed_offset", "stats")}
    return json.loads(json.dumps(body, sort_keys=True))


def _local_records():
    """Run the subset CLI-style; collect the records it simulated.

    Each experiment's profile carries the record of every simulation
    it performed, in every seed universe (seed-robustness's sibling
    universes included), as the runner produced it -- the records the
    serial ``cell_sink`` writes to ``cells.jsonl``.
    """
    _, profiles = run_experiments(EXPERIMENTS, jobs=1, **SCALES)
    return {rec["key"]: _normalize(rec)
            for p in profiles for rec in p.metrics}


async def _served_records():
    async with serve_ctx(**SCALES) as svc:
        client = await ServiceClient.connect("127.0.0.1",
                                             svc.bound_port)
        lines = await client.request({
            "op": "sweep", "id": "sweep",
            "experiments": EXPERIMENTS})
        await client.close()
        assert lines[-1]["type"] == "done" and lines[-1]["ok"]
        counters = svc.counters.snapshot()
    return ({ln["cell"]["key"]: _normalize(ln["cell"])
             for ln in lines[:-1]}, counters)


def test_served_sweep_is_byte_identical_to_repro_all(tmp_path,
                                                     monkeypatch):
    # cold service run, cache A (cleared memos: compute for real)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-a"))
    default_data.cache_clear()
    served, cold_counters = run_async(_served_records(), timeout=600)
    assert cold_counters["engine_cells"] == len(served) > 10

    # independent CLI-style run, cache B: fresh kernels and memos, so
    # every number is recomputed, not replayed
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-b"))
    default_data.cache_clear()
    local = _local_records()

    # every served cell was also computed by the CLI run, with an
    # identical record -- same key, same seconds, same stats
    assert set(served) == set(local)
    assert len(served) > 10
    for key in served:
        assert served[key] == local[key], key

    # warm pass against cache B: answered without any engine work
    served_warm, warm_counters = run_async(_served_records(),
                                           timeout=600)
    assert served_warm == served
    assert warm_counters["engine_cells"] == 0
    assert warm_counters["dedupe_cached"] == len(served)


# ----------------------------------------------------------------------
# named factorial sweeps (repro.c3i.sweeps) through the same op
# ----------------------------------------------------------------------

async def _served_named_sweep(name):
    async with serve_ctx(**SCALES) as svc:
        client = await ServiceClient.connect("127.0.0.1",
                                             svc.bound_port)
        lines = await client.request({
            "op": "sweep", "id": "named", "sweep": name})
        await client.close()
    return lines


def test_served_named_sweep_matches_local_repro_sweep(tmp_path,
                                                      monkeypatch):
    from repro.c3i import sweeps as sweep_defs

    sweep = sweep_defs.get_sweep("smoke")

    # cold served run, cache A
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-a"))
    default_data.cache_clear()
    lines = run_async(_served_named_sweep("smoke"), timeout=600)
    done = lines[-1]
    assert done["type"] == "done" and done["ok"]
    assert done["sweep"] == "smoke"
    assert done["n_cells"] == sweep.n_cells
    assert done["fingerprint"] == \
        sweep_defs.expansion_fingerprint(sweep)
    served = {ln["cell"]["key"]: _normalize(ln["cell"])
              for ln in lines[:-1]}
    assert len(served) == sweep.n_cells  # smoke cells are all unique

    # independent local `repro sweep`, cache B: every cell recomputed
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-b"))
    default_data.cache_clear()
    local = {}
    outcome = sweep_defs.run_sweep(
        "smoke", jobs=1,
        on_record=lambda rec: local.update({rec["key"]:
                                            _normalize(rec)}),
        **SCALES)
    assert outcome.n_computed == sweep.n_cells
    assert outcome.fingerprint == done["fingerprint"]

    # byte-identical per content-addressed key
    assert set(served) == set(local)
    for key in served:
        assert served[key] == local[key], key


def test_named_sweep_unknown_name_is_one_error_line(tmp_path,
                                                    monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    default_data.cache_clear()
    lines = run_async(_served_named_sweep("nope"), timeout=120)
    assert len(lines) == 1
    assert lines[0]["type"] == "error"
    assert "unknown sweep" in lines[0]["error"]
