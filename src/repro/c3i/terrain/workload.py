"""Workload extraction: Terrain Masking runs -> machine-model jobs.

Structurally (and this is what drives every Terrain Masking result in
the paper): the program is **memory-bound**.  Each threat's processing
sweeps region-sized arrays (temp, masking window, terrain window,
angle accumulators) that are far larger than any of the caches, so the
conventional machines are limited by memory bandwidth -- and more than
one op in three references memory, so the MTA is limited by its
network.  The per-cell LOS evaluation (quantised-ray interpolation and
grazing-ray candidates) dominates the op count.

Job shapes:

* sequential -- Program 3: per scenario, serial phases for the
  copy / compute / merge passes;
* blocked -- Program 4: a dynamic work queue of threats, per-item
  private temp phases and per-block lock-protected merges.  The blocked
  program *resets* its private temp instead of copying masking into it,
  which is the paper's "incidental speedup ... from swapping the roles
  of the temp and masking arrays" -- less traffic at one thread;
* fine-grained -- the Tera version: the same passes with inner-loop
  parallelism (ring width for the propagation, region rows for the
  sweeps) and the ring-ordering critical path as unhidable latency.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.workload import (
    AccessPattern,
    Compute,
    Critical,
    Job,
    OpCounts,
    SerialStep,
    WorkItem,
    WorkQueueRegion,
    make_phase,
    read_of,
    write_of,
)

#: the benchmark's elevation grids are 16-bit integers
ELEV_BYTES = 2.0

from repro.c3i.terrain.blocked import BlockedResult
from repro.c3i.terrain.finegrained import FineGrainedTerrainResult
from repro.c3i.terrain.scenarios import TerrainScenario
from repro.c3i.terrain.sequential import TerrainMaskingResult

# ----------------------------------------------------------------------
# per-event op recipes (calibrated; see harness/calibration.py)
# ----------------------------------------------------------------------

#: initializing one cell of the masking array to +inf
OPS_PER_INIT_CELL = OpCounts(store=1.0, ialu=0.5)

#: copying one masking cell into temp (Program 3's save pass)
OPS_PER_COPY_CELL = OpCounts(load=1.0, store=1.0, ialu=1.5, branch=0.25)

#: resetting one private temp cell to +inf (Program 4's swap)
OPS_PER_RESET_CELL = OpCounts(store=1.0, ialu=1.0, branch=0.25)

#: one cell of the LOS shadow propagation: parent gathers, tangent,
#: grazing-ray interpolation, running max, safe-altitude store.
OPS_PER_RING_CELL = OpCounts(falu=60.0, ialu=35.0, load=45.0, store=14.0,
                             branch=12.0)

#: min-merging one cell back into the shared masking array
OPS_PER_MERGE_CELL = OpCounts(load=2.0, store=1.0, falu=1.0, ialu=1.5,
                              branch=0.25)

#: per-threat setup (region geometry, ring tables) -- serial-ish, small
OPS_SETUP_PER_THREAT = OpCounts(ialu=4000.0, falu=1000.0, load=2000.0,
                                store=1500.0, branch=800.0)

#: formatting/writing one covered cell of the masking output -- the
#: benchmark's output pass, inherently sequential (ordered stream)
OPS_PER_OUTPUT_CELL = OpCounts(load=0.3, store=0.2, ialu=0.8,
                               branch=0.2)

#: live arrays while processing one threat (temp, masking window,
#: terrain window, angle accumulator, altitude buffer)
LIVE_ARRAYS = 5.0

#: unhidable start/finish cost of one ring of the wavefront (cycles)
RING_START_CYCLES = 40.0


def _region_bytes(cells: float) -> float:
    return cells * ELEV_BYTES * LIVE_ARRAYS


def _avg_region_cells(result) -> float:
    n = len(getattr(result, "per_threat", None)
            or getattr(result, "per_threat_blocks", None)
            or getattr(result, "ring_profile", None) or [1])
    return result.n_region_cells_total / max(1, n)


def _init_phase(scenario: TerrainScenario, f: float,
                parallelism: float = 1.0):
    grid_cells = scenario.grid_n ** 2 * f
    return make_phase(
        f"t{scenario.index}-init", OPS_PER_INIT_CELL * grid_cells,
        unique_bytes=grid_cells * ELEV_BYTES,
        pattern=AccessPattern.SEQUENTIAL, access_bytes=ELEV_BYTES,
        parallelism=parallelism,
        accesses=(write_of("masking"),),
    )


def _covered_cells(result) -> float:
    import numpy as np
    return float(np.isfinite(result.masking).sum())


def _output_phase(scenario: TerrainScenario, result, f: float):
    cells = _covered_cells(result) * f
    return make_phase(
        f"t{scenario.index}-output", OPS_PER_OUTPUT_CELL * cells,
        unique_bytes=cells * ELEV_BYTES,
        pattern=AccessPattern.SEQUENTIAL, access_bytes=ELEV_BYTES,
        accesses=(read_of("masking"),),
    )


def _setup_phase(scenario: TerrainScenario):
    ops = OPS_SETUP_PER_THREAT * scenario.n_threats
    return make_phase(
        f"t{scenario.index}-setup", ops,
        unique_bytes=256 * 1024.0,
        pattern=AccessPattern.SEQUENTIAL,
    )


# ----------------------------------------------------------------------
# job builders
# ----------------------------------------------------------------------

def sequential_benchmark_job(
        scenarios: Sequence[TerrainScenario],
        results: Sequence[TerrainMaskingResult]) -> Job:
    """Program 3 over all five scenarios, one thread."""
    steps = []
    for scenario, result in zip(scenarios, results):
        f = scenario.extrapolation_factor
        region = _region_bytes(_avg_region_cells(result) * f)
        steps.append(SerialStep(_setup_phase(scenario)))
        steps.append(SerialStep(_init_phase(scenario, f)))
        steps.append(SerialStep(make_phase(
            f"t{scenario.index}-copy",
            OPS_PER_COPY_CELL * (result.n_region_cells_total * f),
            unique_bytes=region, pattern=AccessPattern.SEQUENTIAL,
            access_bytes=ELEV_BYTES,
            accesses=(read_of("masking"),))))
        steps.append(SerialStep(make_phase(
            f"t{scenario.index}-propagate",
            OPS_PER_RING_CELL * (result.ring_cells_total * f),
            unique_bytes=region, pattern=AccessPattern.STRIDED,
            access_bytes=ELEV_BYTES,
            accesses=(read_of("terrain"), write_of("masking")))))
        steps.append(SerialStep(make_phase(
            f"t{scenario.index}-merge",
            OPS_PER_MERGE_CELL * (result.n_region_cells_total * f),
            unique_bytes=region, pattern=AccessPattern.SEQUENTIAL,
            access_bytes=ELEV_BYTES,
            accesses=(write_of("masking"),))))
        steps.append(SerialStep(_output_phase(scenario, result, f)))
    return Job("terrain-sequential", tuple(steps))


def blocked_work_items(scenario: TerrainScenario,
                       result: BlockedResult) -> tuple[WorkItem, ...]:
    """Program 4's queue for one scenario: one item per threat."""
    f = scenario.extrapolation_factor
    items = []
    for t_idx, (cells, ring_cells, blocks) in enumerate(
            result.per_threat_blocks):
        region = _region_bytes(cells * f)
        # reset/propagate touch only the worker-private temp array
        # (the paper's per-thread storage), so they carry no shared
        # accesses; the merges min into the shared masking array at
        # block granularity under the per-block locks.
        work = [
            Compute(make_phase(
                f"t{scenario.index}-th{t_idx}-reset",
                OPS_PER_RESET_CELL * (cells * f),
                unique_bytes=cells * f * ELEV_BYTES,
                pattern=AccessPattern.SEQUENTIAL,
                access_bytes=ELEV_BYTES)),
            Compute(make_phase(
                f"t{scenario.index}-th{t_idx}-propagate",
                OPS_PER_RING_CELL * (ring_cells * f),
                unique_bytes=region,
                pattern=AccessPattern.STRIDED,
                access_bytes=ELEV_BYTES,
                accesses=(read_of("terrain"),))),
        ]
        for bid, overlap_cells in blocks:
            work.append(Critical(
                f"t{scenario.index}-block{bid}",
                make_phase(
                    f"t{scenario.index}-th{t_idx}-merge-b{bid}",
                    OPS_PER_MERGE_CELL * (overlap_cells * f),
                    unique_bytes=overlap_cells * f * ELEV_BYTES * 2,
                    pattern=AccessPattern.SEQUENTIAL,
                    access_bytes=ELEV_BYTES,
                    shared_fraction=0.2,
                    accesses=(read_of("masking", bid, bid),
                              write_of("masking", bid, bid)))))
        items.append(WorkItem(f"t{scenario.index}-threat{t_idx}",
                              tuple(work)))
    return tuple(items)


def blocked_benchmark_job(
        scenarios: Sequence[TerrainScenario],
        results: Sequence[BlockedResult],
        n_threads: int,
        thread_kind: str = "os") -> Job:
    """Program 4: dynamic threat queue, per-thread temp, block locks."""
    steps = []
    for scenario, result in zip(scenarios, results):
        f = scenario.extrapolation_factor
        steps.append(SerialStep(_setup_phase(scenario)))
        steps.append(SerialStep(_init_phase(scenario, f)))
        steps.append(WorkQueueRegion(blocked_work_items(scenario, result),
                                     n_threads=n_threads,
                                     thread_kind=thread_kind))
        steps.append(SerialStep(_output_phase(scenario, result, f)))
    return Job(f"terrain-blocked-{n_threads}t", tuple(steps))


def rethread_blocked_job(job: Job, n_threads: int,
                         thread_kind: str = "os") -> Job:
    """``job`` (a :func:`blocked_benchmark_job`) over another worker
    pool.

    Neither the kernel run nor the work items depend on the pool: the
    queue is walked in threat order whatever ``n_threads`` is.  So the
    result shares every serial step and ``WorkItem`` tuple with
    ``job`` (the job tree is frozen); only the queue regions and the
    name are new, and the job equals a fresh build at ``n_threads``.
    """
    steps = tuple(
        dataclasses.replace(step, n_threads=n_threads,
                            thread_kind=thread_kind)
        if isinstance(step, WorkQueueRegion) else step
        for step in job.steps)
    return Job(f"terrain-blocked-{n_threads}t", steps)


def finegrained_benchmark_job(
        scenarios: Sequence[TerrainScenario],
        results: Sequence[FineGrainedTerrainResult]) -> Job:
    """The Tera fine-grained version: threats in sequence, inner loops
    wide.  One control thread; each phase carries its parallelism."""
    steps = []
    for scenario, result in zip(scenarios, results):
        f = scenario.extrapolation_factor
        steps.append(SerialStep(_setup_phase(scenario)))
        # the Tera version parallelizes the initialization sweep too
        steps.append(SerialStep(_init_phase(
            scenario, f, parallelism=float(scenario.grid_n))))
        for t_idx, (cells, ring_sizes) in enumerate(result.ring_profile):
            region = _region_bytes(cells * f)
            n_rings = len(ring_sizes)
            ring_cells = sum(ring_sizes)
            mean_width = (ring_cells / n_rings if n_rings else 1.0)
            # ring widths scale linearly with the grid
            width = max(1.0, mean_width * f ** 0.5)
            rows = max(1.0, cells ** 0.5 * f ** 0.5)
            steps.append(SerialStep(make_phase(
                f"t{scenario.index}-th{t_idx}-copy",
                OPS_PER_COPY_CELL * (cells * f),
                unique_bytes=region,
                pattern=AccessPattern.SEQUENTIAL,
                access_bytes=ELEV_BYTES,
                parallelism=rows,
                accesses=(read_of("masking"),))))
            steps.append(SerialStep(make_phase(
                f"t{scenario.index}-th{t_idx}-propagate",
                OPS_PER_RING_CELL * (ring_cells * f),
                unique_bytes=region,
                pattern=AccessPattern.STRIDED,
                access_bytes=ELEV_BYTES,
                parallelism=width,
                serial_cycles=n_rings * f ** 0.5 * RING_START_CYCLES,
                accesses=(read_of("terrain"), write_of("masking")))))
            steps.append(SerialStep(make_phase(
                f"t{scenario.index}-th{t_idx}-merge",
                OPS_PER_MERGE_CELL * (cells * f),
                unique_bytes=region,
                pattern=AccessPattern.SEQUENTIAL,
                access_bytes=ELEV_BYTES,
                parallelism=rows,
                accesses=(write_of("masking"),))))
        steps.append(SerialStep(_output_phase(scenario, result, f)))
    return Job("terrain-finegrained", tuple(steps))


# ----------------------------------------------------------------------
# memory-capacity analysis (why Program 4 cannot feed the MTA)
# ----------------------------------------------------------------------

#: bytes of per-thread working storage per region cell in Program 4:
#: the int16 temp array plus the floating-point angle accumulator and
#: altitude buffer the LOS computation needs.
TEMP_BYTES_PER_CELL = ELEV_BYTES + 2 * 8.0


def blocked_memory_footprint(scenario: TerrainScenario,
                             n_threads: int) -> float:
    """Bytes of storage Program 4 needs at paper scale with
    ``n_threads`` worker threads.

    Section 6: "each thread requires its own temp array ... the region
    of influence of each threat is up to 5% of the total terrain.
    Therefore, this approach ... does not require excessive extra
    storage for small numbers of threads (e.g., sixteen), but may be
    impractical for large numbers of threads (e.g., hundreds)."
    """
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    f = scenario.extrapolation_factor
    grid_cells = scenario.grid_n ** 2 * f
    # terrain + masking grids, shared
    fixed = grid_cells * ELEV_BYTES * 2.0
    # every worker holds the largest region's working set
    max_region = max(
        (2 * t.range_cells + 1) ** 2 for t in scenario.threats) * f
    return fixed + n_threads * max_region * TEMP_BYTES_PER_CELL
