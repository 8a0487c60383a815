"""Wire-format validation and the cell-key parity contract."""

import json

import pytest

from repro.harness.parallel import _cell, experiment_cells
from repro.harness.runner import BenchmarkData
from repro.service import protocol

from tests.service.conftest import SCALES


# ----------------------------------------------------------------------
# machine ids
# ----------------------------------------------------------------------

def test_parse_machine_families():
    kind, spec = protocol.parse_machine("alpha")
    assert kind == "conventional" and spec.n_cpus == 1
    kind, spec = protocol.parse_machine("ppro:3")
    assert kind == "conventional" and spec.n_cpus == 3
    kind, spec = protocol.parse_machine("exemplar")
    assert kind == "conventional" and spec.n_cpus == 16
    kind, spec = protocol.parse_machine("MTA:4")
    assert kind == "mta" and spec.n_processors == 4
    kind, spec = protocol.parse_machine("mta")
    assert spec.n_processors == 1
    kind, spec = protocol.parse_machine("cmt:64")
    assert kind == "conventional" and spec.n_cpus == 64
    kind, spec = protocol.parse_machine("cmt")
    assert spec.n_cpus == 512


@pytest.mark.parametrize("bad", [
    "", "   ", "cray", "ppro:0", "ppro:5", "exemplar:17", "mta:0",
    "mta:257", "alpha:2", "ppro:x", None, 7, "cmt:0", "cmt:513"])
def test_parse_machine_rejects(bad):
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_machine(bad)


# ----------------------------------------------------------------------
# workload ids
# ----------------------------------------------------------------------

@pytest.mark.parametrize("good", [
    "th-job-seq", "th-job-fg", "te-job-seq", "te-job-fg",
    "th-job-ch-4-os", "th-job-ch-128-sw", "te-job-bl-1-os",
    "te-job-bl-16-sw", "tb-stencil-w8-d4-g1-s0-hw",
    "tb-mesh-w64-d6-g2-s3-os", "tb-fanout-w4-d2-g1-s0-sw"])
def test_validate_recipe_accepts(good):
    assert protocol.validate_recipe(good) == good


@pytest.mark.parametrize("bad", [
    "bogus", "th-job-ch-4-hw", "th-job-ch--os", "th-job-ch-4",
    "te-job-bl-0-os", "te-job-bl-99999999-os", "th-job-ch-x-os",
    None, 3, "", "tb-spiral-w8-d4-g1-s0-hw", "tb-mesh-w0-d4-g1-s0-hw",
    "tb-mesh-w8-d4-g1-s0", "tb-mesh-w8-d4-g1-s0-user"])
def test_validate_recipe_rejects(bad):
    with pytest.raises(protocol.ProtocolError):
        protocol.validate_recipe(bad)


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------

def test_cell_defaults_per_machine_kind():
    mta_cell = protocol.cell_from_payload(
        {"machine": "mta:2", "workload": "th-job-seq"}, **SCALES)
    conv_cell = protocol.cell_from_payload(
        {"machine": "exemplar:4", "workload": "th-job-seq"}, **SCALES)
    assert mta_cell["slices_per_phase"] == 8
    assert conv_cell["slices_per_phase"] == 16
    assert mta_cell["seed_offset"] == 0
    assert mta_cell["unit"] == "cell:th-job-seq@0"


@pytest.mark.parametrize("payload", [
    "not an object",
    {"machine": "mta:2"},                                  # no workload
    {"workload": "th-job-seq"},                            # no machine
    {"machine": "mta:2", "workload": "th-job-seq", "x": 1},
    {"machine": "mta:2", "workload": "th-job-seq",
     "seed_offset": "zero"},
    {"machine": "mta:2", "workload": "th-job-seq",
     "slices_per_phase": 0},
    {"machine": "mta:2", "workload": "th-job-seq",
     "exploit_fine_grained": True},                        # MTA + efg
    {"machine": "mta:2", "workload": "th-job-seq",
     "faults": "quantum-bitflip"},
    {"machine": "mta:2", "workload": "th-job-seq",
     "faults": "streams", "fault_seed": "x"},
])
def test_cell_from_payload_rejects(payload):
    with pytest.raises(protocol.ProtocolError):
        protocol.cell_from_payload(payload, **SCALES)


def test_faulted_cell_keyed_apart_from_healthy():
    healthy = protocol.cell_from_payload(
        {"machine": "mta:2", "workload": "th-job-seq"}, **SCALES)
    faulted = protocol.cell_from_payload(
        {"machine": "mta:2", "workload": "th-job-seq",
         "faults": "streams:0.5:0.8"}, **SCALES)
    assert faulted["key"] != healthy["key"]
    assert "fault_plan" in faulted and "fault_plan" not in healthy


# ----------------------------------------------------------------------
# key parity: a served cell IS the repro-all cell
# ----------------------------------------------------------------------

def test_cell_key_matches_runner_sim_key():
    data = BenchmarkData(**SCALES)
    for machine, workload, extra in (
            ("mta:2", "th-job-seq", {}),
            ("alpha", "te-job-fg", {}),
            ("exemplar:16", "te-job-bl-8-os", {}),
            ("ppro:4", "th-job-ch-4-os",
             {"exploit_fine_grained": True})):
        cell = protocol.cell_from_payload(
            dict(extra, machine=machine, workload=workload), **SCALES)
        key_payload = {"kind": cell["kind"], "spec": cell["spec"],
                       "slices_per_phase": cell["slices_per_phase"],
                       "job": "recipe:" + cell["job_recipe"]}
        if cell["kind"] == "conventional":
            key_payload["exploit_fine_grained"] = \
                cell["exploit_fine_grained"]
        assert cell["key"] == data._sim_key(key_payload), \
            (machine, workload)


def test_cell_keys_match_planner_cells():
    """Every transportable cell the registry plans is reachable --
    with an identical content-addressed key -- through the protocol."""
    checked = 0
    for sim in experiment_cells("table3", BenchmarkData(**SCALES)):
        cell = _cell(sim)
        if cell is None:
            continue
        spec = cell["spec"]
        if hasattr(spec, "n_processors"):
            machine = f"mta:{spec.n_processors}"
        elif spec.name.startswith("AlphaStation"):
            machine = "alpha"
        elif "Exemplar" in spec.name:
            machine = f"exemplar:{spec.n_cpus}"
        else:
            machine = f"ppro:{spec.n_cpus}"
        served = protocol.cell_from_payload({
            "machine": machine, "workload": cell["job_recipe"],
            "seed_offset": cell["seed_offset"],
            "slices_per_phase": cell["slices_per_phase"],
            "exploit_fine_grained": cell["exploit_fine_grained"],
        }, **SCALES)
        assert served["key"] == sim.key
        checked += 1
    assert checked >= 4  # table3 spans alpha/ppro/exemplar/mta


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------

def test_encode_decode_roundtrip():
    message = {"op": "simulate", "id": "r1", "cells": []}
    line = protocol.encode(message)
    assert line.endswith(b"\n") and b"\n" not in line[:-1]
    assert protocol.decode(line) == message


@pytest.mark.parametrize("junk", [
    b"not json\n", b"\xff\xfe\n", b"[1, 2]\n", b'"string"\n', b"42\n"])
def test_decode_rejects_junk(junk):
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(junk)


def test_hello_payload_shape():
    hello = protocol.hello_payload(threat_scale=0.02,
                                   terrain_scale=0.05, jobs=2)
    assert hello["schema"] == protocol.SCHEMA
    assert json.loads(json.dumps(hello)) == hello  # JSON-serializable
    assert "simulate" in hello["ops"] and "sweep" in hello["ops"]
    assert any(m.startswith("cmt:") for m in hello["machines"])
    assert any(w.startswith("tb-") for w in hello["workloads"])
    assert hello["sweeps"] == ["ci", "full", "smoke"]
