"""The simulation service's wire protocol (``repro-service/v1``).

**Design choice (DESIGN.md section 14):** the service speaks
*newline-delimited JSON over TCP*, not HTTP/ASGI.  The repo's hard
dependency set is numpy + the stdlib; an ASGI app needs a server
(uvicorn et al.) the container may not have, while ``asyncio``'s
stream API gives the same request/streaming-response shape with zero
dependencies, trivially scriptable clients (``nc``, a 10-line asyncio
coroutine) and no framing ambiguity -- one JSON object per ``\\n``
-terminated line, UTF-8, in both directions.

Client -> server ops::

    {"op": "hello"}
    {"op": "simulate", "id": "r1", "cells": [CELL, ...],
     "threat_scale": 0.02, "terrain_scale": 0.05}   # scales optional
    {"op": "sweep", "id": "r2", "experiments": ["table3"] | "all"}
    {"op": "sweep", "id": "r3", "sweep": "ci"}   # named factorial sweep
    {"op": "stats"}
    {"op": "shutdown"}

where ``CELL`` names one simulation::

    {"machine": "mta:2",            # see parse_machine
     "workload": "th-job-ch-4-os",  # a job recipe, see validate_recipe
     "seed_offset": 0,              # optional, default 0
     "slices_per_phase": 8,         # optional, machine-kind default
     "exploit_fine_grained": false, # optional, conventional only
     "faults": "streams:0.5:0.8",   # optional fault plan (chaos spec)
     "fault_seed": 3}               # optional, default 0

Server -> client, one line each::

    {"type": "hello", ...}          # capabilities
    {"type": "cell", "id": ..., "cell": {...record...}}  # streamed
    {"type": "done", "id": ..., "n_cells": N, ...counters...}
    {"type": "error", "id": ..., "error": "..."}
    {"type": "stats", "stats": {...}}
    {"type": "bye"}

A healthy cell's result *record* is identical in shape (and, by the
shared content-addressed key, in value) to one line of a ``repro all``
run directory's ``cells.jsonl``: ``key``/``kind``/``machine``/``job``/
``seconds``/``seed_offset``/``stats``.

Validation happens here, before anything reaches the engine: an
unknown machine or workload, a malformed fault spec or a non-object
payload rejects the *request* with a single ``error`` line; the
connection stays usable.
"""

from __future__ import annotations

import json
from typing import Optional

from repro import taskbench
from repro.faults.plan import FaultPlan
from repro.harness import store
from repro.machines import cmt, exemplar, ppro
from repro.machines.catalog import ALPHASTATION_500
from repro.mta import mta

SCHEMA = "repro-service/v1"

#: request-level byte budget: one line must stay parseable in memory
MAX_LINE_BYTES = 4 * 1024 * 1024

#: machine families the service accepts (``family[:n]``)
MACHINE_FAMILIES = {
    "alpha": (None, 1, 1),        # fixed single-CPU workstation
    "ppro": (ppro, 1, 4),
    "exemplar": (exemplar, 1, 16),
    "mta": (mta, 1, 256),
    "cmt": (cmt, 1, 512),         # SPARC T3-4 strands (conventional kind)
}

#: exact job-recipe names (parameterized forms documented below)
FIXED_RECIPES = ("th-job-seq", "th-job-fg", "te-job-seq", "te-job-fg")

#: simulated-thread kinds accepted in parameterized recipes
THREAD_KINDS = ("os", "sw")

#: sanity cap on chunk/thread counts in parameterized recipes
MAX_RECIPE_N = 1 << 16


class ProtocolError(ValueError):
    """A request failed validation; the message goes back verbatim."""


def parse_machine(text: str):
    """``family[:n]`` -> ``(kind, spec)``.

    ``kind`` is the engine dispatch tag (``"mta"`` or
    ``"conventional"``); ``spec`` the machine-spec dataclass.  Families:
    ``alpha`` (the AlphaStation, always 1 CPU), ``ppro[:1..4]``,
    ``exemplar[:1..16]`` (default: full machine), ``mta[:n]``
    (default 1 processor) and ``cmt[:1..512]`` (T3-4 strands, default
    the full machine; conventional kind).
    """
    if not isinstance(text, str) or not text.strip():
        raise ProtocolError(f"bad machine id {text!r}: expected "
                            f"family[:n], families "
                            f"{sorted(MACHINE_FAMILIES)}")
    family, _, tail = text.strip().lower().partition(":")
    if family not in MACHINE_FAMILIES:
        raise ProtocolError(
            f"unknown machine family {family!r}; known: "
            f"{sorted(MACHINE_FAMILIES)}")
    factory, lo, hi = MACHINE_FAMILIES[family]
    if factory is None:
        if tail not in ("", "1"):
            raise ProtocolError(
                f"machine {family!r} has exactly 1 CPU, got {text!r}")
        return "conventional", ALPHASTATION_500
    if tail == "":
        n = {"ppro": 4, "exemplar": 16, "mta": 1, "cmt": 512}[family]
    else:
        try:
            n = int(tail)
        except ValueError:
            raise ProtocolError(
                f"bad machine id {text!r}: {tail!r} is not an "
                f"integer") from None
    if not lo <= n <= hi:
        raise ProtocolError(
            f"machine {family!r} supports {lo}..{hi} processors, "
            f"got {n}")
    kind = "mta" if family == "mta" else "conventional"
    return kind, factory(n)


def validate_recipe(key) -> str:
    """Check a workload id names a rebuildable job recipe.

    Accepted: the fixed recipes, ``th-job-ch-<n>-<os|sw>`` (Threat
    Analysis chunked into ``n`` simulated threads),
    ``te-job-bl-<n>-<os|sw>`` (Terrain Masking blocked over ``n``) and
    ``tb-<topo>-w<W>-d<D>-g<G>-s<S>-<os|sw|hw>`` (a generated
    taskbench graph; see :mod:`repro.taskbench`).  Mirrors
    :meth:`repro.harness.runner.BenchmarkData.job_from_recipe`
    without building anything.
    """
    known = (f"one of {', '.join(FIXED_RECIPES)}, "
             f"th-job-ch-<n>-<os|sw>, te-job-bl-<n>-<os|sw>, "
             f"tb-<topo>-w<W>-d<D>-g<G>-s<S>-<os|sw|hw>")
    if not isinstance(key, str):
        raise ProtocolError(f"bad workload id {key!r}: expected {known}")
    if key in FIXED_RECIPES:
        return key
    if key.startswith("tb-"):
        try:
            taskbench.parse_recipe(key)  # bounds-checks without building
        except KeyError as exc:
            raise ProtocolError(str(exc.args[0])) from None
        return key
    for prefix in ("th-job-ch-", "te-job-bl-"):
        if key.startswith(prefix):
            tail = key[len(prefix):]
            n_text, _, kind = tail.rpartition("-")
            if kind not in THREAD_KINDS or not n_text.isdigit():
                break
            n = int(n_text)
            if not 1 <= n <= MAX_RECIPE_N:
                raise ProtocolError(
                    f"bad workload id {key!r}: thread/chunk count "
                    f"must be 1..{MAX_RECIPE_N}")
            return key
    raise ProtocolError(f"unknown workload {key!r}; expected {known}")


def cell_from_payload(payload, *, threat_scale: float,
                      terrain_scale: float) -> dict:
    """Validate one request ``CELL`` into an engine cell descriptor.

    The descriptor carries everything
    :func:`repro.harness.parallel.run_cells` (or the faulted-run path)
    needs, plus the content-addressed ``key`` the batcher dedupes on.
    For a healthy cell the key is :func:`repro.harness.store.cell_key`
    of the payload ``BenchmarkData`` builds for the same simulation, so
    a served result is the same cache entry -- and therefore
    byte-identical to -- the cell a ``repro all`` run would produce;
    ``tests/service/test_protocol.py`` pins the payload equality.  A
    faulted cell's key additionally folds in the fault plan (faulted
    runs bypass the result cache, the key only coalesces identical
    in-flight requests).
    """
    from repro.harness.parallel import cell_weight

    if not isinstance(payload, dict):
        raise ProtocolError(f"cell must be an object, got "
                            f"{type(payload).__name__}")
    unknown = set(payload) - {"machine", "workload", "seed_offset",
                              "slices_per_phase",
                              "exploit_fine_grained", "faults",
                              "fault_seed"}
    if unknown:
        raise ProtocolError(f"unknown cell fields {sorted(unknown)}")
    kind, spec = parse_machine(payload.get("machine"))
    recipe = validate_recipe(payload.get("workload"))
    seed_offset = payload.get("seed_offset", 0)
    if not isinstance(seed_offset, int) or isinstance(seed_offset, bool):
        raise ProtocolError(
            f"seed_offset must be an integer, got {seed_offset!r}")
    slices = payload.get("slices_per_phase")
    if slices is None:
        slices = 8 if kind == "mta" else 16
    if not isinstance(slices, int) or isinstance(slices, bool) \
            or slices < 1:
        raise ProtocolError(
            f"slices_per_phase must be a positive integer, got "
            f"{slices!r}")
    efg = payload.get("exploit_fine_grained", False)
    if not isinstance(efg, bool):
        raise ProtocolError(
            f"exploit_fine_grained must be a boolean, got {efg!r}")
    if efg and kind == "mta":
        raise ProtocolError(
            "exploit_fine_grained applies to conventional machines "
            "only")

    key_payload = {"kind": kind, "spec": spec,
                   "slices_per_phase": slices,
                   "job": "recipe:" + recipe}
    if kind == "conventional":
        key_payload["exploit_fine_grained"] = efg
    key = store.cell_key(key_payload, threat_scale=threat_scale,
                         terrain_scale=terrain_scale,
                         seed_offset=seed_offset)

    cell = {
        "key": key,
        "kind": kind,
        "spec": spec,
        "job_recipe": recipe,
        "slices_per_phase": slices,
        "exploit_fine_grained": efg,
        "seed_offset": seed_offset,
        "unit": f"cell:{recipe}@{seed_offset}",
        "weight": cell_weight(recipe, spec),
        "threat_scale": threat_scale,
        "terrain_scale": terrain_scale,
    }

    faults = payload.get("faults")
    if faults is not None:
        fault_seed = payload.get("fault_seed", 0)
        if not isinstance(fault_seed, int) \
                or isinstance(fault_seed, bool):
            raise ProtocolError(
                f"fault_seed must be an integer, got {fault_seed!r}")
        try:
            plan = FaultPlan.parse(faults, seed=fault_seed)
        except ValueError as exc:
            raise ProtocolError(f"bad fault plan: {exc}") from None
        cell["faults"] = faults
        cell["fault_seed"] = fault_seed
        cell["fault_plan"] = plan
        # a faulted run is keyed apart from (and never cached as) the
        # healthy cell
        cell["key"] = store.fingerprint(
            {"healthy_key": key, "faults": plan.to_payload()})
    return cell


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------

def encode(message: dict) -> bytes:
    """One protocol line: compact JSON + newline, UTF-8."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes) -> dict:
    """Parse one request line; raises :class:`ProtocolError` on junk."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"malformed request line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got "
            f"{type(message).__name__}")
    return message


def _sweep_names() -> list[str]:
    """Named factorial sweeps the ``sweep`` op accepts (lazy import:
    the sweep registry sits above the harness)."""
    from repro.c3i.sweeps import SWEEPS

    return sorted(SWEEPS)


def hello_payload(*, threat_scale: float, terrain_scale: float,
                  jobs: int) -> dict:
    """The ``hello`` response body (service capabilities)."""
    import repro

    return {
        "type": "hello",
        "schema": SCHEMA,
        "version": getattr(repro, "__version__", ""),
        "model_epoch": store.model_epoch(),
        "threat_scale": threat_scale,
        "terrain_scale": terrain_scale,
        "jobs": jobs,
        "machines": ["alpha", "ppro:1..4", "exemplar:1..16",
                     "mta:1..256", "cmt:1..512"],
        "workloads": list(FIXED_RECIPES) + [
            "th-job-ch-<n>-<os|sw>", "te-job-bl-<n>-<os|sw>",
            "tb-<topo>-w<W>-d<D>-g<G>-s<S>-<os|sw|hw>"],
        "sweeps": _sweep_names(),
        "ops": ["hello", "simulate", "sweep", "stats", "shutdown"],
    }


def record_response(request_id, record: dict,
                    schedule: Optional[list] = None) -> dict:
    """One streamed per-cell result line."""
    from repro.harness.rundir import cell_id

    body = dict(record)
    body.setdefault("cell", cell_id(record.get("machine", ""),
                                    record.get("job", "")))
    if schedule is not None:
        body["fault_schedule"] = schedule
    return {"type": "cell", "id": request_id, "cell": body}
