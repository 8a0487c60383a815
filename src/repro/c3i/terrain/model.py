"""Terrain, ground threats, and the masking-altitude computation.

**Masking model.**  A threat's sensor sits ``sensor_height`` above the
terrain at its cell.  An aircraft at altitude *a* over cell *c* is
visible when the line from the sensor to it clears every terrain cell
on the way, i.e. when its elevation angle from the sensor exceeds the
maximum elevation angle of the intervening terrain.  The maximum *safe*
(invisible) altitude over *c* is therefore the altitude of the grazing
ray over the highest intervening obstruction -- never below the local
terrain:

    mask(c) = max( terrain(c),
                   sensor_alt + tan(theta_max(c)) * dist(c) )

where ``theta_max(c)`` is the running maximum elevation angle along the
ray from the threat to *c* (exclusive).  Cells outside every threat's
region of influence are unconstrained (+inf).

**Wavefront structure.**  ``theta_max`` at a cell is derived from the
cell one ring closer to the threat along the (quantised) ray -- the
classic R2 viewshed recurrence.  Rings must be processed in order
(inner before outer) but every cell *within* a ring is independent:
exactly the inner-loop parallelism the Tera version exploits, and the
reason the paper says "the value at one point is computed from the
values at neighboring points".
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np


def generate_terrain(n: int, rng: np.random.Generator,
                     relief: float = 300.0) -> np.ndarray:
    """A smooth synthetic elevation grid (n x n, float64 meters).

    Coarse random control points bilinearly upsampled plus fine noise:
    hills of realistic horizontal scale without any SciPy dependency in
    the hot path.
    """
    if n < 8:
        raise ValueError("terrain must be at least 8x8")
    coarse_n = max(4, n // 32)
    coarse = rng.random((coarse_n + 1, coarse_n + 1))
    # bilinear upsample to n x n
    xi = np.linspace(0, coarse_n, n)
    x0 = np.floor(xi).astype(int).clip(0, coarse_n - 1)
    fx = xi - x0
    rows = (coarse[x0, :] * (1 - fx)[:, None]
            + coarse[x0 + 1, :] * fx[:, None])
    cols0 = rows[:, x0] * (1 - fx)[None, :]
    cols1 = rows[:, x0 + 1] * fx[None, :]
    smooth = cols0 + cols1
    noise = rng.random((n, n)) * 0.04
    terrain = (smooth + noise) * relief
    return np.ascontiguousarray(terrain)


@dataclass(frozen=True)
class GroundThreat:
    """One ground-based threat (sensor site)."""

    x: int
    y: int
    range_cells: int
    sensor_height: float = 15.0

    def __post_init__(self) -> None:
        if self.range_cells < 1:
            raise ValueError("range_cells must be >= 1")
        if self.sensor_height < 0:
            raise ValueError("sensor_height must be >= 0")


@dataclass(frozen=True)
class RegionWindow:
    """The clipped bounding window of a threat's region of influence."""

    x0: int
    x1: int  # exclusive
    y0: int
    y1: int  # exclusive

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x1 - self.x0, self.y1 - self.y0)

    @property
    def n_cells(self) -> int:
        w, h = self.shape
        return w * h

    def slices(self) -> tuple[slice, slice]:
        return slice(self.x0, self.x1), slice(self.y0, self.y1)


def region_window(threat: GroundThreat, n: int) -> RegionWindow:
    r = threat.range_cells
    return RegionWindow(
        x0=max(0, threat.x - r), x1=min(n, threat.x + r + 1),
        y0=max(0, threat.y - r), y1=min(n, threat.y + r + 1),
    )


@lru_cache(maxsize=64)
def ring_offsets(radius: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per-ring cell offsets and their ray parents, for a disc of the
    given radius.

    Returns one entry per Chebyshev ring k = 1..radius:
    ``(dx, dy, pdx, pdy)`` arrays -- the ring's cell offsets from the
    threat and each cell's parent offsets one ring in (only offsets
    within the *Euclidean* disc of ``radius`` are included).
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    rings = []
    r2 = radius * radius
    for k in range(1, radius + 1):
        coords = []
        for dx in range(-k, k + 1):
            for dy in range(-k, k + 1):
                if max(abs(dx), abs(dy)) != k:
                    continue
                if dx * dx + dy * dy > r2:
                    continue
                coords.append((dx, dy))
        if not coords:
            continue
        dxa = np.array([c[0] for c in coords], dtype=np.int64)
        dya = np.array([c[1] for c in coords], dtype=np.int64)
        scale = (k - 1) / k
        pdx = np.rint(dxa * scale).astype(np.int64)
        pdy = np.rint(dya * scale).astype(np.int64)
        rings.append((dxa, dya, pdx, pdy))
    return tuple(rings)


@lru_cache(maxsize=64)
def ring_geometry(radius: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Ring offsets plus the position-independent ray geometry.

    Cell and parent distances depend only on the offsets from the
    threat (``xs - threat.x == dxa`` exactly, in integer arithmetic),
    so the square roots are computed once per window radius instead of
    once per threat.  The arrays are bit-identical to what
    :func:`masking_for_threat` historically recomputed inline.
    """
    geo = []
    for dxa, dya, pdx, pdy in ring_offsets(radius):
        dist = np.sqrt(dxa ** 2.0 + dya ** 2.0)
        pdist = np.sqrt(pdx ** 2.0 + pdy ** 2.0)
        for a in (dist, pdist):
            a.setflags(write=False)
        geo.append((dxa, dya, pdx, pdy, dist, pdist))
    return tuple(geo)


@dataclass
class ThreatMaskStats:
    """Structural counts of one per-threat masking computation."""

    n_rings: int = 0
    n_ring_cells: int = 0
    ring_sizes: Optional[list[int]] = None

    def __post_init__(self) -> None:
        if self.ring_sizes is None:
            self.ring_sizes = []


def masking_for_threat(terrain: np.ndarray, threat: GroundThreat
                       ) -> tuple[RegionWindow, np.ndarray,
                                  ThreatMaskStats]:
    """Maximum safe altitude due to one threat, over its region window.

    Returns the window, an altitude array of the window's shape (+inf
    outside the threat's disc), and structural stats.  Rings are
    processed inner to outer; each ring is a vectorised gather from its
    parents -- the fine-grained-parallel loop of the Tera variant.
    """
    n = terrain.shape[0]
    if terrain.shape != (n, n):
        raise ValueError("terrain must be square")
    if not (0 <= threat.x < n and 0 <= threat.y < n):
        raise ValueError("threat must sit on the terrain")
    window = region_window(threat, n)
    sensor_alt = float(terrain[threat.x, threat.y]) + threat.sensor_height

    shape = window.shape
    alt = np.full(shape, np.inf)
    # running max elevation *tangent* per cell of the window
    acc = np.full(shape, -np.inf)
    stats = ThreatMaskStats()

    # the threat's own cell: flying over the sensor is never safe below
    # the sensor; mask is the local terrain (grazing).
    cx, cy = threat.x - window.x0, threat.y - window.y0
    alt[cx, cy] = terrain[threat.x, threat.y]
    acc[cx, cy] = -np.inf

    for dxa, dya, pdx, pdy, dist, pdist in ring_geometry(
            threat.range_cells):
        xs = threat.x + dxa
        ys = threat.y + dya
        keep = (xs >= 0) & (xs < n) & (ys >= 0) & (ys < n)
        if not keep.all():
            if not keep.any():
                continue
            xs, ys = xs[keep], ys[keep]
            pxs = threat.x + pdx[keep]
            pys = threat.y + pdy[keep]
            dist, pdist = dist[keep], pdist[keep]
        else:
            pxs = threat.x + pdx
            pys = threat.y + pdy
        # window-relative coordinates
        wx, wy = xs - window.x0, ys - window.y0
        pwx, pwy = pxs - window.x0, pys - window.y0
        # parent terrain tangent (the obstruction the parent cell adds)
        with np.errstate(divide="ignore", invalid="ignore"):
            ptan = np.where(
                pdist > 0,
                (terrain[pxs, pys] - sensor_alt) / np.maximum(pdist, 1e-12),
                -np.inf)
        theta = np.maximum(acc[pwx, pwy], ptan)
        acc[wx, wy] = theta
        shadow = sensor_alt + theta * dist
        alt[wx, wy] = np.maximum(terrain[xs, ys], shadow)
        stats.n_rings += 1
        stats.n_ring_cells += int(xs.size)
        stats.ring_sizes.append(int(xs.size))

    return window, alt, stats


#: id(terrain) -> {threat: (window, alt, stats)} for each live terrain
#: grid.  A finalizer drops a grid's masks when the grid is freed, so a
#: universe nobody holds releases them, and before its id can be reused.
_MASK_MEMO: dict[int, dict[GroundThreat, tuple[RegionWindow, np.ndarray,
                                                ThreatMaskStats]]] = {}


def masking_for_threat_cached(terrain: np.ndarray, threat: GroundThreat
                              ) -> tuple[RegionWindow, np.ndarray,
                                         ThreatMaskStats]:
    """Memoized :func:`masking_for_threat`.

    The masking computation depends only on the terrain grid and the
    threat, both immutable in practice, while every kernel variant
    (sequential, blocked at each thread count, fine-grained) recomputes
    the same per-threat altitudes.  Callers must treat the returned
    window/altitude/stats as read-only; the altitude array is marked
    non-writeable to enforce that.
    """
    masks = _MASK_MEMO.get(id(terrain))
    if masks is None:
        masks = _MASK_MEMO[id(terrain)] = {}
        weakref.finalize(terrain, _MASK_MEMO.pop, id(terrain),
                         None).atexit = False
    hit = masks.get(threat)
    if hit is not None:
        return hit
    window, alt, stats = masking_for_threat(terrain, threat)
    alt.setflags(write=False)
    masks[threat] = (window, alt, stats)
    return window, alt, stats
