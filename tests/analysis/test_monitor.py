"""Tests for the live sync monitor and the buggy fixtures."""

import pytest

from repro.analysis import SyncMonitor, monitoring
from repro.analysis.fixtures import FIXTURES, fixture_by_name
from repro.des import FullEmptyCell, SimBarrier, Simulator


# ----------------------------------------------------------------------
# SyncMonitor hooks
# ----------------------------------------------------------------------

def test_monitor_registers_primitives():
    sim = Simulator()
    with monitoring(sim) as mon:
        FullEmptyCell(sim, name="c")
        SimBarrier(sim, parties=2, name="b")
    assert [c.name for c in mon.cells] == ["c"]
    assert [b.name for b in mon.barriers] == ["b"]
    assert sim.monitor is None  # restored on exit


def test_no_monitor_by_default():
    sim = Simulator()
    FullEmptyCell(sim)
    SimBarrier(sim, parties=1)
    assert sim.monitor is None


def test_monitor_sees_overwrite_of_full_cell():
    sim = Simulator()
    with monitoring(sim) as mon:
        cell = FullEmptyCell(sim, value=1, full=True)
        cell.write_ff(2)
        assert mon.overwrite_count == 1
        findings = mon.finish(job="j")
    assert [f.hazard for f in findings] == ["write-to-full"]


def test_writeff_on_empty_cell_is_not_flagged():
    sim = Simulator()
    with monitoring(sim) as mon:
        cell = FullEmptyCell(sim)
        cell.write_ff(1)
        assert mon.overwrite_count == 0
        assert mon.finish() == []
    assert cell.is_full


def test_monitor_reports_stuck_reader_and_waiting_barrier():
    sim = Simulator()
    with monitoring(sim) as mon:
        cell = FullEmptyCell(sim, name="never-filled")
        bar = SimBarrier(sim, parties=3, name="short")

        def reader():
            yield cell.read_fe()

        def waiter():
            yield bar.wait()

        sim.process(reader())
        sim.process(waiter())
        sim.run()
        findings = mon.finish(job="j")
    hazards = sorted(f.hazard for f in findings)
    assert hazards == ["barrier-mismatch", "read-from-empty"]
    locations = {f.hazard: f.location for f in findings}
    assert locations["read-from-empty"] == "never-filled"
    assert locations["barrier-mismatch"] == "short"


def test_monitor_clean_run_has_no_findings():
    sim = Simulator()
    with monitoring(sim) as mon:
        cell = FullEmptyCell(sim)
        bar = SimBarrier(sim, parties=2)

        def producer():
            yield cell.write_ef(42)
            yield bar.wait()

        def consumer():
            yield cell.read_fe()
            yield bar.wait()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert mon.finish() == []


def test_monitoring_restores_previous_monitor():
    sim = Simulator()
    outer = SyncMonitor()
    sim.monitor = outer
    with monitoring(sim):
        assert sim.monitor is not outer
    assert sim.monitor is outer


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fx", FIXTURES, ids=lambda f: f.name)
def test_every_fixture_is_flagged_with_expected_hazards(fx):
    flagged, findings = fx.check()
    assert flagged, (
        f"{fx.name} expected {sorted(fx.expected)}, got "
        f"{[f.render() for f in findings]}")
    assert findings  # never flagged vacuously


def test_fixture_lookup():
    assert fixture_by_name("dropped-lock").expected == {"lock-discipline"}
    with pytest.raises(KeyError):
        fixture_by_name("no-such-fixture")


def test_skipped_writeef_names_the_stuck_cell():
    findings = fixture_by_name("skipped-writeef").run()
    by_hazard = {f.hazard: f for f in findings}
    assert by_hazard["read-from-empty"].location == "pipe[3]"


def test_barrier_mismatch_reports_party_shortfall():
    findings = fixture_by_name("barrier-mismatch").run()
    bm = next(f for f in findings if f.hazard == "barrier-mismatch")
    assert "3 of 4" in bm.detail
