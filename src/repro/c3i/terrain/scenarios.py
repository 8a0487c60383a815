"""Synthetic input scenarios for Terrain Masking.

Paper-documented parameters: five scenarios, 60 threats each, each
threat's region of influence up to 5% of the terrain.  ``scale``
shrinks the grid (and ranges with it) for fast simulation; the workload
extractor extrapolates by the cell-count ratio (the work is linear in
region cells).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.c3i.common import TERRAIN_MASKING, scenario_rng
from repro.c3i.terrain.model import GroundThreat, generate_terrain


@dataclass(frozen=True)
class FullScale:
    """Paper-scale parameters (per scenario)."""

    grid_n: int = 3200
    n_threats: int = 60
    #: a disc of radius 0.126*N covers 5% of an N x N terrain
    max_range_fraction: float = 0.126
    min_range_fraction: float = 0.055


FULL_SCALE = FullScale()


@dataclass(frozen=True)
class TerrainScenario:
    """One Terrain Masking input scenario."""

    index: int
    terrain: np.ndarray
    threats: tuple[GroundThreat, ...]
    scale: float

    @property
    def grid_n(self) -> int:
        return int(self.terrain.shape[0])

    @property
    def n_threats(self) -> int:
        return len(self.threats)

    @property
    def extrapolation_factor(self) -> float:
        """Cell-count multiplier to paper scale (regions scale with the
        grid, so work goes as the square of the linear scale)."""
        return (FULL_SCALE.grid_n / self.grid_n) ** 2


#: (index, scale, seed_offset) -> every scenario something still holds
_LIVE: weakref.WeakValueDictionary[tuple[int, float, int],
                                   TerrainScenario] = \
    weakref.WeakValueDictionary()


def make_scenario(index: int, scale: float = 1.0,
                  seed_offset: int = 0) -> TerrainScenario:
    """Generate terrain scenario ``index`` (0..4) at the given scale.

    ``seed_offset`` selects an alternative synthetic-input universe.

    Deterministic in the arguments and frozen, so a live instance (and
    the per-terrain masking memo keyed on its grid) is shared
    process-wide.  Sharing lasts while something holds the scenario: a
    universe nobody holds frees its terrain grid and masks.  The
    terrain grid is marked read-only to keep sharing safe.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    key = (index, scale, seed_offset)
    scenario = _LIVE.get(key)
    if scenario is None:
        scenario = _LIVE[key] = _generate(index, scale, seed_offset)
    return scenario


def _generate(index: int, scale: float,
              seed_offset: int) -> TerrainScenario:
    rng = scenario_rng(TERRAIN_MASKING, index, seed_offset)
    n = max(64, round(FULL_SCALE.grid_n * scale))
    terrain = generate_terrain(n, rng, relief=250.0 + 50.0 * index)
    terrain.setflags(write=False)

    threats = []
    for _ in range(FULL_SCALE.n_threats):
        r_frac = rng.uniform(FULL_SCALE.min_range_fraction,
                             FULL_SCALE.max_range_fraction)
        r = max(4, round(r_frac * n))
        margin = 2
        threats.append(GroundThreat(
            x=int(rng.integers(margin, n - margin)),
            y=int(rng.integers(margin, n - margin)),
            range_cells=r,
            sensor_height=float(rng.uniform(8.0, 25.0)),
        ))
    return TerrainScenario(index=index, terrain=terrain,
                           threats=tuple(threats), scale=scale)


def benchmark_scenarios(scale: float = 1.0,
                        seed_offset: int = 0) -> list[TerrainScenario]:
    """The benchmark's five input scenarios."""
    return [make_scenario(i, scale=scale, seed_offset=seed_offset)
            for i in range(5)]
