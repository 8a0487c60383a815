"""Declarative factorial sweep definitions over taskbench workloads.

A :class:`SweepDef` names a topology x size x machine x seed grid; its
expansion is a deterministic, sorted factorial product of
service-protocol ``CELL`` payloads, validated and keyed by
:func:`repro.service.protocol.cell_from_payload` -- the same code path
a ``sweep`` service request takes, which is what makes `repro sweep`
and the served sweep byte-identical per cell by construction.  The
expanded cells run through :func:`repro.harness.parallel.run_cells`
(content-addressed dedupe, largest-first draining, ``-j`` pools) and
land in the run store, where ``repro runs query --cell`` finds them by
the factor substrings baked into every recipe name
(``tb-<topo>-w<W>-d<D>-g<G>-s<S>-<kind>``).

This is how the registry scales from ~dozens of hand-listed cells to
thousands: dozens of lines of grid definition, not thousands of lines
of cells (muBench-style; ROADMAP item 3).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional

from repro.harness import store
from repro.taskbench import TOPOLOGIES, recipe_name
from repro.taskbench.generator import TaskGraphParams

SCHEMA = "repro-sweep/v1"

#: thread kind per machine family: hardware contexts where the family
#: has them (MTA streams, T3-4 strands), OS threads on the SMPs.
_KIND_FOR_FAMILY = {"mta": "hw", "cmt": "hw"}


@dataclass(frozen=True)
class SweepDef:
    """One named factorial grid."""

    name: str
    description: str
    topologies: tuple[str, ...]
    widths: tuple[int, ...]
    depths: tuple[int, ...]
    grains: tuple[int, ...] = (1,)
    seeds: tuple[int, ...] = (0,)
    #: protocol machine ids (``family[:n]``, see parse_machine)
    machines: tuple[str, ...] = ("mta:1",)

    def __post_init__(self) -> None:
        for topo in self.topologies:
            if topo not in TOPOLOGIES:
                raise ValueError(f"unknown topology {topo!r}")
        if not (self.topologies and self.widths and self.depths
                and self.grains and self.seeds and self.machines):
            raise ValueError(f"sweep {self.name!r} has an empty factor")

    @property
    def n_cells(self) -> int:
        return (len(self.topologies) * len(self.widths) * len(self.depths)
                * len(self.grains) * len(self.seeds) * len(self.machines))

    def factors(self) -> dict:
        """The grid as a JSON-able document (manifest material)."""
        return {
            "topologies": list(self.topologies),
            "widths": list(self.widths),
            "depths": list(self.depths),
            "grains": list(self.grains),
            "seeds": list(self.seeds),
            "machines": list(self.machines),
        }


def _kind_for(machine: str) -> str:
    family = machine.partition(":")[0].strip().lower()
    return _KIND_FOR_FAMILY.get(family, "os")


def expand_payloads(sweep: SweepDef) -> list[dict]:
    """The sweep's cells as protocol ``CELL`` payloads, in the
    deterministic sorted-factorial order (machine varies fastest)."""
    out = []
    for topo, width, depth, grain, seed, machine in product(
            sweep.topologies, sweep.widths, sweep.depths, sweep.grains,
            sweep.seeds, sweep.machines):
        params = TaskGraphParams(topo, width, depth, grain, seed)
        out.append({
            "machine": machine,
            "workload": recipe_name(params, _kind_for(machine)),
        })
    return out


def expansion_fingerprint(sweep: SweepDef) -> str:
    """Content fingerprint of the expansion (the golden-test anchor).

    Covers the payload list only -- machine ids and recipe names --
    not engine arithmetic, so it is stable across recalibrations and
    model-epoch bumps; it changes exactly when the grid or the
    expansion order does.
    """
    return store.fingerprint({"schema": SCHEMA, "sweep": sweep.name,
                              "cells": expand_payloads(sweep)})


def expand_cells(sweep: SweepDef, *, threat_scale: float,
                 terrain_scale: float) -> list[dict]:
    """Expand into engine cell descriptors (validated, keyed)."""
    from repro.service.protocol import cell_from_payload

    return [cell_from_payload(p, threat_scale=threat_scale,
                              terrain_scale=terrain_scale)
            for p in expand_payloads(sweep)]


# ----------------------------------------------------------------------
# the named sweeps
# ----------------------------------------------------------------------

SWEEPS: dict[str, SweepDef] = {
    sweep.name: sweep for sweep in (
        SweepDef(
            name="smoke",
            description="a dozen tiny cells; service-parity fixture",
            topologies=("stencil", "mesh"),
            widths=(4,),
            depths=(2, 3),
            machines=("mta:1", "cmt:16", "exemplar:2"),
        ),
        SweepDef(
            name="ci",
            description="the CI grid: >=100 small cells under a "
                        "wall-clock budget",
            topologies=TOPOLOGIES,
            widths=(4, 8, 16),
            depths=(2, 4),
            seeds=(0, 1),
            machines=("mta:1", "cmt:32", "exemplar:4"),
        ),
        SweepDef(
            name="full",
            description="the >=1000-cell factorial grid of the "
                        "acceptance criteria",
            topologies=TOPOLOGIES,
            widths=(2, 4, 8),
            depths=(2, 3, 4),
            grains=(1, 2),
            seeds=(0, 1, 2, 3),
            machines=("mta:1", "mta:2", "cmt:64", "exemplar:8"),
        ),
    )
}


def get_sweep(name: str) -> SweepDef:
    if name not in SWEEPS:
        raise KeyError(f"unknown sweep {name!r}; known: {sorted(SWEEPS)}")
    return SWEEPS[name]


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

@dataclass
class SweepOutcome:
    """What one ``run_sweep`` invocation did (the report payload)."""

    sweep: str
    fingerprint: str
    n_cells: int
    n_unique: int
    n_cached: int
    n_computed: int
    verify_checked: int = 0
    verify_failures: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    def payload(self, sweep: SweepDef) -> dict:
        return {
            "schema": SCHEMA,
            "sweep": self.sweep,
            "description": sweep.description,
            "factors": sweep.factors(),
            "fingerprint": self.fingerprint,
            "n_cells": self.n_cells,
            "n_unique": self.n_unique,
            "n_cached": self.n_cached,
            "n_computed": self.n_computed,
            "verify_checked": self.verify_checked,
            "verify_failures": list(self.verify_failures),
            "wall_seconds": round(self.wall_seconds, 3),
        }


def expansion_manifest(sweep: SweepDef) -> dict:
    """The JSON manifest of an expansion (the CI artifact)."""
    return {
        "schema": SCHEMA,
        "sweep": sweep.name,
        "description": sweep.description,
        "factors": sweep.factors(),
        "fingerprint": expansion_fingerprint(sweep),
        "n_cells": sweep.n_cells,
        "cells": expand_payloads(sweep),
    }


def _verify_cell(cell: dict) -> Optional[str]:
    """Run one cell's job on both engines directly (cache bypassed);
    returns a description of the parity violation, or None."""
    from repro.harness.bench import REL_TOL
    from repro.harness.runner import BenchmarkData
    from repro.machines.machine import ConventionalMachine
    from repro.mta.machine import MtaMachine

    data = BenchmarkData(threat_scale=cell["threat_scale"],
                         terrain_scale=cell["terrain_scale"],
                         seed_offset=cell["seed_offset"])
    job = data.job_from_recipe(cell["job_recipe"])
    if cell["kind"] == "mta":
        des = MtaMachine(cell["spec"],
                         slices_per_phase=cell["slices_per_phase"],
                         use_cohort=False).run(job)
        coh = MtaMachine(cell["spec"],
                         slices_per_phase=cell["slices_per_phase"],
                         use_cohort=True).run(job)
    else:
        efg = cell["exploit_fine_grained"]
        des = ConventionalMachine(
            cell["spec"], slices_per_phase=cell["slices_per_phase"],
            exploit_fine_grained=efg, use_cohort=False).run(job)
        coh = ConventionalMachine(
            cell["spec"], slices_per_phase=cell["slices_per_phase"],
            exploit_fine_grained=efg, use_cohort=True).run(job)
    tol = REL_TOL * max(abs(des.seconds), abs(coh.seconds))
    if abs(des.seconds - coh.seconds) > tol:
        return (f"{cell['unit']} on {des.machine}: DES {des.seconds!r} "
                f"!= cohort {coh.seconds!r}")
    return None


def run_sweep(name: str, *, threat_scale: float, terrain_scale: float,
              jobs: int = 1, verify: bool = False,
              on_record: Optional[Callable[[dict], None]] = None,
              out=None) -> SweepOutcome:
    """Expand and execute one named sweep.

    Returns the :class:`SweepOutcome`; ``n_computed`` counts cells that
    actually reached an engine (a cached re-run reports 0 -- the CI
    dedupe assertion).  ``verify`` additionally runs every unique
    (machine, workload) pair on both engines directly, recording parity
    violations.
    """
    from repro.harness.parallel import run_cells

    out = out if out is not None else sys.stdout
    sweep = get_sweep(name)
    t0 = time.perf_counter()
    cells = expand_cells(sweep, threat_scale=threat_scale,
                         terrain_scale=terrain_scale)
    fingerprint = expansion_fingerprint(sweep)
    unique = {c["key"]: c for c in cells}
    cache = store.active_cache()
    n_cached = sum(1 for key in unique
                   if cache is not None and cache.get(key) is not None)
    print(f"sweep {name}: {len(cells)} cells ({len(unique)} unique, "
          f"{n_cached} cached), fingerprint {fingerprint[:16]}",
          file=out)
    records = run_cells(cells, threat_scale=threat_scale,
                        terrain_scale=terrain_scale, jobs=jobs,
                        on_record=on_record)
    outcome = SweepOutcome(
        sweep=name, fingerprint=fingerprint, n_cells=len(cells),
        n_unique=len(unique), n_cached=n_cached,
        n_computed=len(unique) - n_cached)
    if verify:
        # one parity check per unique (machine, workload) pair; the
        # seed_offset/scale factors are covered by the key dedupe above
        seen: set = set()
        for cell in unique.values():
            pair = (cell["spec"].name, cell["job_recipe"],
                    cell["slices_per_phase"], cell["exploit_fine_grained"])
            if pair in seen:
                continue
            seen.add(pair)
            failure = _verify_cell(cell)
            outcome.verify_checked += 1
            if failure is not None:
                outcome.verify_failures.append(failure)
                print(f"sweep {name}: PARITY VIOLATION {failure}",
                      file=out)
    outcome.wall_seconds = time.perf_counter() - t0
    n_rec = len(records)
    verdict = ""
    if verify:
        verdict = (f", verified {outcome.verify_checked} pairs "
                   f"({len(outcome.verify_failures)} violations)")
    print(f"sweep {name}: {n_rec} records, {outcome.n_computed} "
          f"computed, {outcome.n_cached} cached{verdict} "
          f"in {outcome.wall_seconds:.1f}s", file=out)
    return outcome
