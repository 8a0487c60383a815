"""Workload extraction: Threat Analysis runs -> machine-model jobs.

The kernels record structural counts (time steps scanned, trajectory
points computed, intervals emitted, per-threat work); this module
converts them into abstract operation counts through per-event recipes
and assembles the :class:`~repro.workload.Job` descriptions the machine
models execute.

**Scale handling.**  Reduced-scale runs (fewer threats, coarser time
grid) are extrapolated to paper scale by (i) scaling each threat's step
count by the time-resolution ratio and (ii) tiling the measured
per-threat statistics out to the full 1000 threats.  This preserves
both the total work (linear in ``threats x steps``) and the *work
distribution* across threats -- which is what chunk-level load balance
(Table 6) depends on.

The per-event recipes are the calibrated constants of the Threat
Analysis model; see ``repro/harness/calibration.py``.  Structurally:
the feasibility scan is floating-point heavy with a *small* memory
footprint (the paper: "compute-bound ... executes mostly within
cache"), so roughly one op in ten touches memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.workload import (
    AccessPattern,
    Compute,
    Critical,
    Job,
    OpCounts,
    ParallelRegion,
    SerialStep,
    ThreadProgram,
    make_phase,
    read_of,
    write_of,
)

from repro.c3i.threat.chunked import chunk_bounds
from repro.c3i.threat.scenarios import FULL_SCALE, Scenario
from repro.c3i.threat.sequential import ThreatAnalysisResult

# ----------------------------------------------------------------------
# per-event op recipes (calibrated; see harness/calibration.py)
# ----------------------------------------------------------------------

#: one feasibility evaluation of the time-stepped scan: position
#: deltas, slant-range and altitude-band tests, loop control.
OPS_PER_STEP = OpCounts(falu=14.0, ialu=8.0, load=3.0, store=0.3,
                        branch=3.0)

#: one point of the trajectory table (computed once per threat).
OPS_PER_TRAJ_POINT = OpCounts(falu=10.0, ialu=4.0, load=2.0, store=3.0,
                              branch=1.0)

#: the range screen for one (threat, weapon) pair.
OPS_PER_PRECHECK = OpCounts(falu=14.0, ialu=5.0, load=4.0, branch=2.0)

#: emitting one interception interval.
OPS_PER_INTERVAL = OpCounts(ialu=10.0, load=2.0, store=6.0, branch=2.0)

#: per-threat input parsing / table construction (serial).
OPS_SETUP_PER_THREAT = OpCounts(ialu=260.0, falu=60.0, load=150.0,
                                store=110.0, branch=60.0)

#: appending through the shared full/empty counter (fine-grained variant)
OPS_PER_SYNC_APPEND = OpCounts(ialu=6.0, load=1.0, store=5.0, sync=2.0)

#: resident footprint of the scan: threat + weapon tables and working
#: variables -- small, the reason the threads "execute mostly within
#: cache" on the conventional SMPs.
FOOTPRINT_PER_THREAT = 64.0     # bytes
FOOTPRINT_PER_WEAPON = 48.0
FOOTPRINT_FIXED = 8192.0


@dataclass(frozen=True)
class FullScaleThreatStats:
    """Per-threat structural counts tiled/scaled to paper scale."""

    steps: tuple[float, ...]        # per threat, full time resolution
    intervals: tuple[float, ...]    # per threat
    prechecks_per_threat: float
    n_steps_grid: float             # trajectory points per threat

    @property
    def n_threats(self) -> int:
        return len(self.steps)

    @property
    def intervals_total(self) -> float:
        return sum(self.intervals)


def full_scale_stats(scenario: Scenario,
                     result: ThreatAnalysisResult) -> FullScaleThreatStats:
    """Tile the measured per-threat work out to the full 1000 threats
    and rescale to the full time resolution."""
    m = scenario.n_threats
    dt = FULL_SCALE.n_steps / scenario.n_steps
    n = FULL_SCALE.n_threats
    steps = tuple(result.steps_per_threat[i % m] * dt for i in range(n))
    intervals = tuple(float(result.intervals_per_threat[i % m])
                      for i in range(n))
    return FullScaleThreatStats(
        steps=steps,
        intervals=intervals,
        prechecks_per_threat=float(scenario.n_weapons),
        n_steps_grid=float(FULL_SCALE.n_steps),
    )


def _scan_ops(steps: float, traj_points: float, prechecks: float,
              intervals: float) -> OpCounts:
    return (OPS_PER_STEP * steps
            + OPS_PER_TRAJ_POINT * traj_points
            + OPS_PER_PRECHECK * prechecks
            + OPS_PER_INTERVAL * intervals)


def _footprint(n_threats: float, n_weapons: float) -> float:
    return (FOOTPRINT_FIXED + n_threats * FOOTPRINT_PER_THREAT
            + n_weapons * FOOTPRINT_PER_WEAPON)


def _setup_phase(scenario: Scenario, stats: FullScaleThreatStats):
    ops = OPS_SETUP_PER_THREAT * stats.n_threats
    return make_phase(
        f"s{scenario.index}-setup", ops,
        unique_bytes=_footprint(stats.n_threats, scenario.n_weapons),
        pattern=AccessPattern.SEQUENTIAL,
        accesses=(write_of("threats", 0, stats.n_threats - 1),),
    )


def _threat_range_ops(stats: FullScaleThreatStats, first: int, last: int
                      ) -> OpCounts:
    """Scan ops of threats [first, last] inclusive, at full scale."""
    n = max(0, last - first + 1)
    steps = sum(stats.steps[first:last + 1])
    intervals = sum(stats.intervals[first:last + 1])
    return _scan_ops(steps, n * stats.n_steps_grid,
                     n * stats.prechecks_per_threat, intervals)


# ----------------------------------------------------------------------
# job builders
# ----------------------------------------------------------------------

def sequential_benchmark_job(
        scenarios: Sequence[Scenario],
        results: Sequence[ThreatAnalysisResult]) -> Job:
    """The benchmark's sequential run: all five scenarios, one thread."""
    steps = []
    for scenario, result in zip(scenarios, results):
        stats = full_scale_stats(scenario, result)
        steps.append(SerialStep(_setup_phase(scenario, stats)))
        ops = _threat_range_ops(stats, 0, stats.n_threats - 1)
        steps.append(SerialStep(make_phase(
            f"s{scenario.index}-scan", ops,
            unique_bytes=_footprint(stats.n_threats, scenario.n_weapons),
            pattern=AccessPattern.SEQUENTIAL,
            accesses=(read_of("threats", 0, stats.n_threats - 1),
                      write_of("intervals"), write_of("num_intervals")),
        )))
    return Job("threat-sequential", tuple(steps))


def chunked_benchmark_job(
        scenarios: Sequence[Scenario],
        results: Sequence[ThreatAnalysisResult],
        n_chunks: int,
        thread_kind: str = "os") -> Job:
    """Program 2: per scenario, a parallel region of ``n_chunks`` chunk
    threads over the full-scale 1000 threats; per-chunk work comes from
    the measured per-threat distribution, so the simulated load
    imbalance is the benchmark's real imbalance."""
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    steps = []
    for scenario, result in zip(scenarios, results):
        stats = full_scale_stats(scenario, result)
        steps.append(SerialStep(_setup_phase(scenario, stats)))
        threads = []
        for c in range(n_chunks):
            first, last = chunk_bounds(stats.n_threats, n_chunks, c)
            n_in_chunk = max(0, last - first + 1)
            ops = _threat_range_ops(stats, first, last)
            # Program 2 writes intervals[chunk][num_intervals[chunk]]:
            # the element extent is opaque at the workload level, so
            # only the compiler's dependence fact (the chunk subscript
            # provably separates iterations) keeps these writes from
            # reading as cross-chunk conflicts.
            accesses = () if n_in_chunk == 0 else (
                read_of("threats", first, last),
                write_of("intervals"),
                write_of("num_intervals"))
            phase = make_phase(
                f"s{scenario.index}-chunk{c}", ops,
                unique_bytes=_footprint(n_in_chunk, scenario.n_weapons),
                pattern=AccessPattern.SEQUENTIAL,
                accesses=accesses,
            )
            threads.append(ThreadProgram(
                f"s{scenario.index}-chunk{c}", (Compute(phase),)))
        steps.append(ParallelRegion(tuple(threads),
                                    thread_kind=thread_kind))
    return Job(f"threat-chunked-{n_chunks}", tuple(steps))


def finegrained_benchmark_job(
        scenarios: Sequence[Scenario],
        results: Sequence[ThreatAnalysisResult],
        max_threads: Optional[int] = 250) -> Job:
    """The sync-variable variant: one thread per threat (coalesced to at
    most ``max_threads`` simulated threads to bound DES cost; the sync
    traffic per append is preserved), appends guarded by the shared
    full/empty counter."""
    steps = []
    for scenario, result in zip(scenarios, results):
        stats = full_scale_stats(scenario, result)
        steps.append(SerialStep(_setup_phase(scenario, stats)))
        n_threads = stats.n_threats
        if max_threads is not None:
            n_threads = min(n_threads, max_threads)
        threads = []
        for i in range(n_threads):
            first, last = chunk_bounds(stats.n_threats, n_threads, i)
            scan = make_phase(
                f"s{scenario.index}-fg{i}",
                _threat_range_ops(stats, first, last),
                unique_bytes=_footprint(last - first + 1,
                                        scenario.n_weapons),
                pattern=AccessPattern.SEQUENTIAL,
                accesses=(read_of("threats", first, last),
                          write_of("trajectory", first, last)),
            )
            appends = sum(stats.intervals[first:last + 1])
            # the shared append is guarded by the num_intervals
            # full/empty counter (the Critical below): every thread
            # holds the same lock, so the whole-array writes are safe
            append = make_phase(
                f"s{scenario.index}-fg{i}-append",
                OPS_PER_SYNC_APPEND * appends,
                unique_bytes=4096.0,
                pattern=AccessPattern.SEQUENTIAL,
                shared_fraction=1.0,
                accesses=(write_of("intervals"),
                          write_of("num_intervals")),
            )
            threads.append(ThreadProgram(
                f"s{scenario.index}-fg{i}",
                (Compute(scan), Critical("num_intervals", append))))
        steps.append(ParallelRegion(tuple(threads), thread_kind="hw"))
    return Job("threat-finegrained", tuple(steps))
