"""Terrain Masking: maximum safe flight altitude over defended terrain.

Problem (paper, Section 6): given the ground elevation of a terrain and
a set of ground-based threats (position + sensor range), compute for
every terrain point the maximum altitude at which an aircraft is
invisible to all threats.  The per-threat computation is a
line-of-sight shadow propagation: the value at one point is computed
from the values at neighboring points along the ray back to the threat
(the wavefront dependence the paper describes), ring by ring outward.
"""

from repro.c3i.terrain.model import (
    GroundThreat,
    RegionWindow,
    generate_terrain,
    masking_for_threat,
    ring_offsets,
)
from repro.c3i.terrain.scenarios import (
    FULL_SCALE,
    TerrainScenario,
    benchmark_scenarios,
    make_scenario,
)
from repro.c3i.terrain.sequential import TerrainMaskingResult, run_sequential
from repro.c3i.terrain.blocked import BlockedResult, run_blocked
from repro.c3i.terrain.finegrained import (
    FineGrainedTerrainResult,
    run_finegrained,
)
from repro.c3i.terrain.validate import (
    check_blocked,
    check_finegrained,
    check_masking,
)
from repro.c3i.terrain.workload import (
    blocked_benchmark_job,
    blocked_memory_footprint,
    finegrained_benchmark_job,
    rethread_blocked_job,
    sequential_benchmark_job,
)

__all__ = [
    "BlockedResult",
    "FULL_SCALE",
    "FineGrainedTerrainResult",
    "GroundThreat",
    "RegionWindow",
    "TerrainMaskingResult",
    "TerrainScenario",
    "benchmark_scenarios",
    "blocked_benchmark_job",
    "blocked_memory_footprint",
    "check_blocked",
    "check_finegrained",
    "check_masking",
    "finegrained_benchmark_job",
    "generate_terrain",
    "make_scenario",
    "masking_for_threat",
    "rethread_blocked_job",
    "ring_offsets",
    "run_blocked",
    "run_finegrained",
    "run_sequential",
    "sequential_benchmark_job",
]
