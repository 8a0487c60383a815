"""Intentionally buggy fixtures proving the detector detects.

Each fixture is a distilled version of a bug class the C3I programs
could plausibly ship with -- the exact mistakes the paper's programming
model makes easy to avoid but not impossible to write -- and the race
CI job requires every one of them to be flagged with its expected
hazard class(es):

* ``chunk-overlap``   -- Program-2-style static chunking with an
  off-by-one in the chunk bounds: adjacent chunks both write the
  boundary element (``data-race``).
* ``dropped-lock``    -- Program-4-style blocked merge where one work
  item forgets the block lock (``lock-discipline``).
* ``skipped-writeef`` -- a producer/consumer pipeline over full/empty
  cells where the producer skips one ``writeef``: the consumer parks
  forever on the empty cell (``read-from-empty`` + ``deadlock``).
* ``barrier-mismatch`` -- a barrier sized for four parties that only
  three threads ever reach (``barrier-mismatch`` + ``deadlock``).
* ``overwrite-full``  -- a producer resetting cells with ``writeff``
  while one still holds an unconsumed value (``write-to-full``).
* ``mesh-missync``    -- a generated taskbench mesh whose tasks write
  their wrap-around neighbour's element in the same level (a forgotten
  halo exchange): same-region writes overlap (``data-race``).

The static fixtures are plain :class:`~repro.workload.task.Job`
values and go through :func:`repro.analysis.hb.analyze_job`; the
dynamic ones run a real DES simulation under
:func:`repro.analysis.monitor.monitoring`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.hb import analyze_job
from repro.analysis.monitor import monitoring
from repro.analysis.report import Finding
from repro.taskbench import missync_mesh_job
from repro.workload.builder import make_phase
from repro.workload.ops import OpCounts, read_of, write_of
from repro.workload.task import (
    Compute,
    Critical,
    Job,
    ParallelRegion,
    SerialStep,
    ThreadProgram,
    WorkItem,
    WorkQueueRegion,
)


def _phase(name: str, accesses=()):
    return make_phase(name, OpCounts(ialu=100, load=60, store=30),
                      accesses=tuple(accesses))


# ----------------------------------------------------------------------
# static fixtures: buggy jobs
# ----------------------------------------------------------------------

def chunk_overlap_job(n_elems: int = 96, n_chunks: int = 8) -> Job:
    """Static chunking with the classic off-by-one: each chunk's upper
    bound is ``(i + 1) * size`` *inclusive*, so chunk ``i`` and chunk
    ``i+1`` both write the boundary element."""
    size = n_elems // n_chunks
    threads = []
    for i in range(n_chunks):
        first = i * size
        last = min(n_elems - 1, (i + 1) * size)  # BUG: should be -1
        threads.append(ThreadProgram(f"chunk{i}", (Compute(_phase(
            f"scan{i}",
            (read_of("threats", first, last),
             write_of("trajectory", first, last)))),)))
    return Job("fixture-chunk-overlap", (
        SerialStep(_phase("setup", (write_of("threats", 0, n_elems - 1),))),
        ParallelRegion(tuple(threads)),
    ))


def dropped_lock_job(n_items: int = 6, bad_item: int = 3) -> Job:
    """Blocked-merge work queue where one item skips the block lock."""
    if not 0 <= bad_item < n_items:
        raise ValueError("bad_item out of range")
    items = []
    for i in range(n_items):
        bid = i % 2  # two masking blocks, shared across items
        merge = _phase(f"merge{i}", (read_of("masking", bid, bid),
                                     write_of("masking", bid, bid)))
        prop = Compute(_phase(f"propagate{i}", (read_of("terrain"),)))
        if i == bad_item:
            items.append(WorkItem(f"threat{i}",
                                  (prop, Compute(merge))))  # BUG
        else:
            items.append(WorkItem(f"threat{i}",
                                  (prop, Critical(f"block{bid}", merge))))
    return Job("fixture-dropped-lock",
               (WorkQueueRegion(tuple(items), n_threads=3),))


# ----------------------------------------------------------------------
# dynamic fixtures: buggy simulations
# ----------------------------------------------------------------------

def _run_dynamic(name: str, build: Callable) -> list[Finding]:
    """Run a buggy simulation under a monitor; a deadlock becomes a
    finding instead of an exception."""
    from repro.des.errors import SimulationDeadlock
    from repro.des.simulator import Simulator

    sim = Simulator()
    with monitoring(sim) as mon:
        processes = build(sim)
        try:
            sim.run_all(*processes)
        except SimulationDeadlock as exc:
            headline = str(exc).splitlines()[0]
            mon_findings = mon.finish(job=name)
            return sorted(
                mon_findings + [Finding(
                    hazard="deadlock", job=name, region="run",
                    location="simulation", units=("simulation",),
                    detail=headline)],
                key=lambda f: f.key)
    return mon.finish(job=name)


def skipped_writeef_findings() -> list[Finding]:
    """Producer fills only ``n - 1`` of ``n`` cells; the consumer's
    final ``readfe`` never completes."""
    from repro.des.sync import FullEmptyCell

    def build(sim):
        n = 4
        cells = [FullEmptyCell(sim, name=f"pipe[{i}]") for i in range(n)]

        def producer():
            for i in range(n):
                yield sim.timeout(1.0)
                if i == n - 1:
                    continue  # BUG: the last writeef is skipped
                yield cells[i].write_ef(i)

        def consumer():
            for i in range(n):
                yield cells[i].read_fe()

        return [sim.process(producer(), name="producer"),
                sim.process(consumer(), name="consumer")]

    return _run_dynamic("fixture-skipped-writeef", build)


def barrier_mismatch_findings() -> list[Finding]:
    """A four-party barrier that only three workers ever reach."""
    from repro.des.sync import SimBarrier

    def build(sim):
        bar = SimBarrier(sim, parties=4, name="phase-barrier")  # BUG: 4

        def worker(k):
            yield sim.timeout(float(k))
            yield bar.wait()

        return [sim.process(worker(k), name=f"worker{k}")
                for k in range(3)]

    return _run_dynamic("fixture-barrier-mismatch", build)


def overwrite_full_findings() -> list[Finding]:
    """A producer that resets cells with the unconditional ``writeff``
    while one still holds an unconsumed value."""
    from repro.des.sync import FullEmptyCell

    def build(sim):
        cells = [FullEmptyCell(sim, name=f"slot[{i}]") for i in range(2)]

        def producer():
            for c in cells:
                yield c.write_ef(1)
            yield sim.timeout(1.0)
            # BUG: generation reset with writeff; slot[1] was never read
            for c in cells:
                yield c.write_ff(2)

        def consumer():
            yield sim.timeout(0.5)
            yield cells[0].read_fe()

        return [sim.process(producer(), name="producer"),
                sim.process(consumer(), name="consumer")]

    return _run_dynamic("fixture-overwrite-full", build)


# ----------------------------------------------------------------------
# the fixture registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fixture:
    """A named buggy scenario and the hazard classes it must trip."""

    name: str
    description: str
    expected: frozenset[str]
    job: Optional[Callable[[], Job]] = None          # static
    run: Optional[Callable[[], list[Finding]]] = None  # dynamic

    def findings(self) -> list[Finding]:
        if self.job is not None:
            return list(analyze_job(self.job()).findings)
        assert self.run is not None
        return self.run()

    def check(self) -> tuple[bool, list[Finding]]:
        """``(flagged, findings)``: flagged iff every expected hazard
        class appeared and nothing unexpected did."""
        fs = self.findings()
        seen = {f.hazard for f in fs}
        return seen == set(self.expected), fs


FIXTURES: tuple[Fixture, ...] = (
    Fixture("chunk-overlap",
            "off-by-one chunk bounds: adjacent chunks write the same "
            "boundary element",
            frozenset({"data-race"}), job=chunk_overlap_job),
    Fixture("dropped-lock",
            "one work item merges into a shared block without the "
            "block lock",
            frozenset({"lock-discipline"}), job=dropped_lock_job),
    Fixture("skipped-writeef",
            "producer skips the final writeef; consumer parks on an "
            "empty cell",
            frozenset({"read-from-empty", "deadlock"}),
            run=skipped_writeef_findings),
    Fixture("barrier-mismatch",
            "barrier sized for four parties; only three arrive",
            frozenset({"barrier-mismatch", "deadlock"}),
            run=barrier_mismatch_findings),
    Fixture("overwrite-full",
            "unconditional writeff clobbers an unconsumed full cell",
            frozenset({"write-to-full"}),
            run=overwrite_full_findings),
    Fixture("mesh-missync",
            "taskbench mesh tasks write their wrap-around neighbour's "
            "element without a barrier (forgotten halo exchange)",
            frozenset({"data-race"}), job=missync_mesh_job),
)


def fixture_by_name(name: str) -> Fixture:
    for fx in FIXTURES:
        if fx.name == name:
            return fx
    raise KeyError(f"unknown fixture {name!r}; "
                   f"have {[f.name for f in FIXTURES]}")
