"""Per-region and per-resource metric rollups.

The machine models record one :class:`RegionMetric` per job step via a
:class:`MachineMetrics` collector, plus aggregated lock-contention
summaries, and fold the result into ``RunResult.stats``.  Both
execution engines feed the same fields through the same arithmetic --
the cohort fast path from :class:`~repro.des.batch.CohortEngine` lock
states, the DES path from :class:`~repro.des.resources.Resource`
counters -- so for a homogeneous region the two report identical
numbers (within the engines' 1e-9 equivalence tolerance).

Lock *convoy* statistics follow one formula in both engines: at each
contended acquire, the queue depth seen by the arriving thread
(``len(queue) + 1``) updates a running maximum and a power-of-two
histogram bucketed by ``1 << (depth.bit_length() - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.batch import CohortEngine
    from repro.des.resources import Resource
    from repro.obs.trace import TraceRecorder


@dataclass(frozen=True)
class RegionMetric:
    """Wall-clock span of one job step on one engine."""

    label: str
    kind: str        # "serial" | "parallel"
    engine: str      # "cohort" | "des"
    start: float
    end: float
    n_threads: int = 1

    @property
    def wall(self) -> float:
        return self.end - self.start


class MachineMetrics:
    """Collects region spans during one machine run.

    When a tracer is attached, every recorded region is also emitted
    as a trace record, so the metrics rollup and the Chrome trace
    always agree on region boundaries.
    """

    __slots__ = ("regions", "tracer")

    def __init__(self, tracer: Optional["TraceRecorder"] = None):
        self.regions: list[RegionMetric] = []
        self.tracer = tracer

    def region(self, kind: str, engine: str, label: str, start: float,
               end: float, n_threads: int = 1) -> None:
        self.regions.append(
            RegionMetric(label, kind, engine, start, end, n_threads))
        tr = self.tracer
        if tr is not None:
            tr.region(start, end, label, engine, n_threads)

    def rollup(self) -> dict[str, float]:
        """Aggregate step spans into ``RunResult.stats`` fields."""
        serial = 0.0
        parallel = 0.0
        for r in self.regions:
            if r.kind == "serial":
                serial += r.end - r.start
            else:
                parallel += r.end - r.start
        return {
            "serial_wall_seconds": serial,
            "region_wall_seconds": parallel,
        }


# ----------------------------------------------------------------------
# lock contention summaries
# ----------------------------------------------------------------------
def lock_summary_from_engine(engine: "CohortEngine") -> dict:
    """Aggregate a cohort engine's per-lock states into one summary."""
    waits = 0
    wait_time = 0.0
    convoy = 0
    hist: dict[int, int] = {}
    for lk in engine.locks.values():
        waits += lk.waits
        wait_time += lk.wait_time
        if lk.max_depth > convoy:
            convoy = lk.max_depth
        for b, c in lk.hist.items():
            hist[b] = hist.get(b, 0) + c
    return {"waits": waits, "wait_time": wait_time, "convoy_max": convoy,
            "hist": hist}


def lock_summary_from_resources(resources: Iterable["Resource"]) -> dict:
    """Aggregate DES :class:`Resource` contention counters likewise."""
    waits = 0
    wait_time = 0.0
    convoy = 0
    hist: dict[int, int] = {}
    for res in resources:
        waits += res.total_waits
        wait_time += res.total_wait_time
        if res.max_queue_depth > convoy:
            convoy = res.max_queue_depth
        for b, c in res.queue_depth_hist.items():
            hist[b] = hist.get(b, 0) + c
    return {"waits": waits, "wait_time": wait_time, "convoy_max": convoy,
            "hist": hist}


def merge_lock_summaries(into: dict, other: dict) -> dict:
    """Accumulate ``other`` into ``into`` (in place) and return it."""
    into["waits"] = into.get("waits", 0) + other["waits"]
    into["wait_time"] = into.get("wait_time", 0.0) + other["wait_time"]
    if other["convoy_max"] > into.get("convoy_max", 0):
        into["convoy_max"] = other["convoy_max"]
    hist = into.setdefault("hist", {})
    for b, c in other.get("hist", {}).items():
        hist[b] = hist.get(b, 0) + c
    return into


def hist_fields(hist: dict[int, int],
                prefix: str = "lock_convoy_hist_") -> dict[str, float]:
    """Flatten a depth histogram into float-valued stats keys."""
    return {f"{prefix}{b}": float(c) for b, c in sorted(hist.items())}


# ----------------------------------------------------------------------
# simulation-record rollups
# ----------------------------------------------------------------------

#: ``RunResult.stats`` keys summed by :func:`rollup_records`, mapped to
#: their rollup field names.  ``lock_convoy_max`` is maxed, not summed.
_SUMMED_STATS = (
    ("cohort_regions", "cohort_regions"),
    ("des_regions", "des_regions"),
    ("closed_form_regions", "closed_form_regions"),
    ("cohort_drained_grants", "drained_grants"),
    ("cohort_stepped_grants", "stepped_grants"),
    ("region_wall_seconds", "region_wall_seconds"),
    ("serial_wall_seconds", "serial_wall_seconds"),
    ("lock_wait_time", "lock_wait_seconds"),
)


def new_rollup() -> dict:
    """A zeroed engine-choice totals dict (see :func:`rollup_add`)."""
    totals: dict = {"sim_runs": 0, "simulated_seconds": 0.0}
    totals.update((out, 0.0) for _, out in _SUMMED_STATS)
    totals["lock_convoy_max"] = 0.0
    return totals


def rollup_add(totals: dict, rec: dict) -> dict:
    """Fold one simulation record into ``totals`` (in place).

    Exposed separately from :func:`rollup_records` so long-lived
    consumers -- the run-directory writer under a service session that
    streams millions of cells -- can keep a running rollup instead of
    retaining every record in memory.
    """
    stats = rec.get("stats") or {}
    totals["sim_runs"] += 1
    totals["simulated_seconds"] += float(rec.get("seconds") or 0.0)
    for key, out in _SUMMED_STATS:
        totals[out] += stats.get(key, 0.0)
    convoy = stats.get("lock_convoy_max", 0.0)
    if convoy > totals["lock_convoy_max"]:
        totals["lock_convoy_max"] = convoy
    return totals


def rollup_records(records: Iterable[dict]) -> dict:
    """Aggregate simulation records into engine-choice totals.

    A *record* is one ``BenchmarkData.metrics_log`` entry
    (kind/machine/job/seconds/stats).  One arithmetic serves every
    consumer -- the ``repro all --metrics`` table, the per-experiment
    rollups stored in ``report.json``, and the run manifest's
    ``engine_stats`` -- so the stored trajectory and the live CLI can
    never drift apart.
    """
    totals = new_rollup()
    for rec in records:
        rollup_add(totals, rec)
    return totals


# ----------------------------------------------------------------------
# service request-level counters and latency quantiles
# ----------------------------------------------------------------------

@dataclass
class ServiceCounters:
    """Request-level counters for the simulation service.

    Incremented by the job server (:mod:`repro.service.server`) and its
    batcher as traffic flows; snapshotted into ``stats`` protocol
    responses, the service run manifest, and the load generator's
    ``BENCH_service.json``.  ``dedupe_cached`` counts cells answered
    from the content-addressed result cache, ``dedupe_inflight`` cells
    coalesced onto an identical cell already executing, and
    ``engine_cells`` the cells that actually reached an engine run --
    ``cells == dedupe_cached + dedupe_inflight + engine_cells`` holds
    at every quiescent point where no engine job has failed.  One
    ``batches`` entry is one engine job, made from one request's cache
    misses; ``batched_cells`` counts the cells those jobs carried.
    """

    connections: int = 0
    requests: int = 0
    cells: int = 0
    dedupe_cached: int = 0
    dedupe_inflight: int = 0
    batches: int = 0
    batched_cells: int = 0
    engine_cells: int = 0
    faulted_cells: int = 0
    errors: int = 0
    disconnects: int = 0

    def snapshot(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


def quantile(samples: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1]).

    The load generator's p50/p95/p99 arithmetic; matches
    ``numpy.quantile``'s default (linear) method without requiring the
    samples as an array.  Raises :class:`ValueError` on empty input.
    """
    data = sorted(samples)
    if not data:
        raise ValueError("quantile of empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q!r}")
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac
