"""The per-table/figure experiment registry.

One entry per table and figure of the paper's evaluation.  Each
experiment builds its jobs from the shared
:class:`~repro.harness.runner.BenchmarkData`, simulates them on the
platform models, and returns an
:class:`~repro.harness.experiment.ExperimentResult` whose rows pair the
paper's numbers with the simulated ones and whose shape checks encode
the reproduction criteria of DESIGN.md.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.harness import calibration as CAL
from repro.harness.experiment import ExperimentResult, Row, ShapeCheck
from repro.harness.runner import BenchmarkData, default_data


def _check(desc: str, passed: bool, detail: str = "") -> ShapeCheck:
    return ShapeCheck(description=desc, passed=bool(passed), detail=detail)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


# ----------------------------------------------------------------------
# Threat Analysis
# ----------------------------------------------------------------------

def table2(data: BenchmarkData) -> ExperimentResult:
    """Sequential Threat Analysis on all four platforms."""
    job = data.threat_sequential_job()
    alpha = data.alpha(job)
    pp = data.ppro(1, job)
    ex = data.exemplar(1, job)
    tera = data.run_mta(1, job)
    paper = CAL.PAPER_TABLE2
    rows = (
        Row("Alpha", paper["Alpha"], alpha),
        Row("Pentium Pro", paper["Pentium Pro"], pp),
        Row("Exemplar", paper["Exemplar"], ex),
        Row("Tera", paper["Tera"], tera),
    )
    checks = (
        _check("Alpha is the fastest sequential platform",
               alpha < min(pp, ex, tera)),
        _check("Tera is the slowest by far",
               tera > 4 * max(alpha, pp, ex)),
        _check("Tera ~14x slower than Alpha (compute-bound program)",
               10.0 <= tera / alpha <= 18.0, f"ratio {tera/alpha:.1f}"),
    )
    return ExperimentResult("table2",
                            "Sequential Threat Analysis (no "
                            "parallelization)", rows, checks)


def table3(data: BenchmarkData) -> ExperimentResult:
    """Threat Analysis on the quad Pentium Pro (Table 3 / Figure 1)."""
    paper = CAL.PAPER_TABLE3
    seq = data.ppro(1, data.threat_sequential_job())
    rows = [Row("sequential", paper["sequential"], seq)]
    times = {}
    for n in (1, 2, 3, 4):
        t = data.ppro(n, data.threat_chunked_job(n, thread_kind="os"))
        times[n] = t
        rows.append(Row(f"{n} processors", paper[n], t))
    s4 = times[1] / times[4]
    checks = (
        _check("near-linear speedup on 4 CPUs (>= 3.5x)",
               s4 >= 3.5, f"speedup {s4:.2f}"),
        _check("1-thread time ~ sequential time (<= 5% overhead)",
               times[1] <= seq * 1.05),
        _check("monotonic scaling",
               times[1] >= times[2] >= times[3] >= times[4]),
    )
    return ExperimentResult("table3",
                            "Multithreaded Threat Analysis on 4-CPU "
                            "Pentium Pro (Table 3 / Figure 1)",
                            tuple(rows), checks)


def table4(data: BenchmarkData) -> ExperimentResult:
    """Threat Analysis on the 16-CPU Exemplar (Table 4 / Figure 2)."""
    paper = CAL.PAPER_TABLE4
    seq = data.exemplar(1, data.threat_sequential_job())
    rows = [Row("sequential", paper["sequential"], seq)]
    times = {}
    for n in range(1, 17):
        t = data.exemplar(n, data.threat_chunked_job(n, thread_kind="os"))
        times[n] = t
        rows.append(Row(f"{n} processors", paper[n], t))
    s16 = times[1] / times[16]
    checks = (
        _check("near-linear speedup on 16 CPUs (>= 14x)",
               s16 >= 14.0, f"speedup {s16:.2f}"),
        _check("monotonic scaling",
               all(times[n] >= times[n + 1] for n in range(1, 16))),
    )
    return ExperimentResult("table4",
                            "Multithreaded Threat Analysis on 16-CPU "
                            "Exemplar (Table 4 / Figure 2)",
                            tuple(rows), checks)


def table5(data: BenchmarkData) -> ExperimentResult:
    """Threat Analysis on the Tera MTA, 256 chunks (Table 5)."""
    paper = CAL.PAPER_TABLE5
    job = data.threat_chunked_job(256, thread_kind="hw")
    t1 = data.run_mta(1, job)
    t2 = data.run_mta(2, job)
    seq = data.run_mta(1, data.threat_sequential_job())
    rows = (
        Row("1 processor", paper[1], t1),
        Row("2 processors", paper[2], t2),
        Row("speedup (2p)", paper[1] / paper[2], t1 / t2, unit="x"),
        Row("MT vs sequential (1p)", CAL.PAPER_TABLE2["Tera"] / paper[1],
            seq / t1, unit="x"),
    )
    checks = (
        _check("multithreading gives >= 25x over sequential on one "
               "processor (paper: 32x)",
               seq / t1 >= 25.0, f"ratio {seq/t1:.1f}"),
        _check("two-processor speedup is less than ideal (~1.8)",
               1.5 <= t1 / t2 <= 1.95, f"speedup {t1/t2:.2f}"),
    )
    return ExperimentResult("table5",
                            "Multithreaded Threat Analysis on "
                            "dual-processor Tera MTA (Table 5)",
                            rows, checks)


def table6(data: BenchmarkData) -> ExperimentResult:
    """Threat Analysis on the 2-processor MTA vs chunk count (Table 6)."""
    paper = CAL.PAPER_TABLE6
    rows = []
    times = {}
    for chunks in (8, 16, 32, 64, 128, 256):
        t = data.run_mta(2, data.threat_chunked_job(chunks,
                                                    thread_kind="hw"))
        times[chunks] = t
        rows.append(Row(f"{chunks} chunks", paper[chunks], t))
    checks = (
        _check("each doubling halves the time below saturation",
               _close(times[8] / times[16], 2.0, 0.15)
               and _close(times[16] / times[32], 2.0, 0.15),
               f"8->16 {times[8]/times[16]:.2f}, "
               f"16->32 {times[16]/times[32]:.2f}"),
        _check("flat once saturated (128 vs 256 chunks within 5%)",
               _close(times[128], times[256], 0.05)),
        _check("hundreds of threads are required (8 chunks >= 5x slower "
               "than 256)",
               times[8] >= 5 * times[256],
               f"ratio {times[8]/times[256]:.1f}"),
    )
    return ExperimentResult("table6",
                            "Threat Analysis vs chunk count on Tera MTA "
                            "(Table 6)", tuple(rows), checks)


def table7(data: BenchmarkData) -> ExperimentResult:
    """Threat Analysis cross-platform summary (Table 7)."""
    seq_job = data.threat_sequential_job()
    t_alpha = data.alpha(seq_job)
    t_ex4 = data.exemplar(4, data.threat_chunked_job(4))
    t_ex8 = data.exemplar(8, data.threat_chunked_job(8))
    t_ex16 = data.exemplar(16, data.threat_chunked_job(16))
    t_pp4 = data.ppro(4, data.threat_chunked_job(4))
    mta_job = data.threat_chunked_job(256, thread_kind="hw")
    t_mta1 = data.run_mta(1, mta_job)
    t_mta2 = data.run_mta(2, mta_job)
    rows = (
        Row("none / Alpha", 187.0, t_alpha),
        Row("none / Pentium Pro", 458.0, data.ppro(1, seq_job)),
        Row("none / Exemplar", 343.0, data.exemplar(1, seq_job)),
        Row("none / Tera", 2584.0, data.run_mta(1, seq_job)),
        Row("automatic / Exemplar", 343.0, data.exemplar(1, seq_job)),
        Row("automatic / Tera", 2584.0, data.run_mta(1, seq_job)),
        Row("manual / Pentium Pro (4p)", 117.0, t_pp4),
        Row("manual / Exemplar (4p)", 87.0, t_ex4),
        Row("manual / Exemplar (8p)", 43.0, t_ex8),
        Row("manual / Exemplar (16p)", 22.0, t_ex16),
        Row("manual / Tera (1p)", 82.0, t_mta1),
        Row("manual / Tera (2p)", 46.0, t_mta2),
    )
    checks = (
        _check("one Tera processor ~ four Exemplar processors "
               "(within 25%)", _close(t_mta1, t_ex4, 0.25),
               f"Tera 1p {t_mta1:.0f}s vs Exemplar 4p {t_ex4:.0f}s"),
        _check("automatic parallelization does not improve on "
               "sequential", True,
               "the autopar pass parallelizes zero loops; see 'autopar'"),
        _check("multithreaded Tera (1p) beats sequential Alpha",
               t_mta1 < t_alpha),
    )
    return ExperimentResult("table7",
                            "Threat Analysis performance comparison "
                            "(Table 7)", rows, checks)


# ----------------------------------------------------------------------
# Terrain Masking
# ----------------------------------------------------------------------

def table8(data: BenchmarkData) -> ExperimentResult:
    """Sequential Terrain Masking on all four platforms."""
    job = data.terrain_sequential_job()
    alpha = data.alpha(job)
    pp = data.ppro(1, job)
    ex = data.exemplar(1, job)
    tera = data.run_mta(1, job)
    paper = CAL.PAPER_TABLE8
    rows = (
        Row("Alpha", paper["Alpha"], alpha),
        Row("Pentium Pro", paper["Pentium Pro"], pp),
        Row("Exemplar", paper["Exemplar"], ex),
        Row("Tera", paper["Tera"], tera),
    )
    checks = (
        _check("Alpha is the fastest sequential platform",
               alpha < min(pp, ex, tera)),
        _check("Tera ~6x slower than Alpha (memory-bound program, "
               "smaller gap than Threat Analysis)",
               4.0 <= tera / alpha <= 9.0, f"ratio {tera/alpha:.1f}"),
        _check("the Tera/Alpha gap is smaller than for Threat Analysis",
               tera / alpha <
               data.run_mta(1, data.threat_sequential_job())
               / data.alpha(data.threat_sequential_job())),
    )
    return ExperimentResult("table8",
                            "Sequential Terrain Masking (no "
                            "parallelization)", rows, checks)


def table9(data: BenchmarkData) -> ExperimentResult:
    """Terrain Masking on the quad Pentium Pro (Table 9 / Figure 3)."""
    paper = CAL.PAPER_TABLE9
    seq = data.ppro(1, data.terrain_sequential_job())
    rows = [Row("sequential", paper["sequential"], seq)]
    times = {}
    for n in (1, 2, 3, 4):
        t = data.ppro(n, data.terrain_blocked_job(n))
        times[n] = t
        rows.append(Row(f"{n} processors", paper[n], t))
    s4 = seq / times[4]
    checks = (
        _check("memory-bound: speedup on 4 CPUs well below ideal "
               "(2.4-3.6x, paper 3.0x)",
               2.4 <= s4 <= 3.6, f"speedup {s4:.2f}"),
        _check("1-thread multithreaded run not slower than sequential "
               "(the temp/masking role swap)",
               times[1] <= seq * 1.02),
    )
    return ExperimentResult("table9",
                            "Multithreaded Terrain Masking on 4-CPU "
                            "Pentium Pro (Table 9 / Figure 3)",
                            tuple(rows), checks)


def table10(data: BenchmarkData) -> ExperimentResult:
    """Terrain Masking on the 16-CPU Exemplar (Table 10 / Figure 4)."""
    paper = CAL.PAPER_TABLE10
    seq = data.exemplar(1, data.terrain_sequential_job())
    rows = [Row("sequential", paper["sequential"], seq)]
    times = {}
    for n in range(1, 17):
        t = data.exemplar(n, data.terrain_blocked_job(n))
        times[n] = t
        rows.append(Row(f"{n} processors", paper[n], t))
    s16 = seq / times[16]
    s8 = seq / times[8]
    checks = (
        _check("saturates well below ideal (16-CPU speedup 5-8x, "
               "paper 6.2x)", 5.0 <= s16 <= 8.0, f"speedup {s16:.2f}"),
        _check("most of the final speedup is reached by 8 CPUs",
               s8 >= 0.75 * s16,
               f"8-CPU {s8:.2f} vs 16-CPU {s16:.2f}"),
    )
    return ExperimentResult("table10",
                            "Multithreaded Terrain Masking on 16-CPU "
                            "Exemplar (Table 10 / Figure 4)",
                            tuple(rows), checks)


def table11(data: BenchmarkData) -> ExperimentResult:
    """Fine-grained Terrain Masking on the Tera MTA (Table 11)."""
    paper = CAL.PAPER_TABLE11
    job = data.terrain_finegrained_job()
    t1 = data.run_mta(1, job)
    t2 = data.run_mta(2, job)
    seq = data.run_mta(1, data.terrain_sequential_job())
    rows = (
        Row("1 processor", paper[1], t1),
        Row("2 processors", paper[2], t2),
        Row("speedup (2p)", paper[1] / paper[2], t1 / t2, unit="x"),
        Row("MT vs sequential (1p)", CAL.PAPER_TABLE8["Tera"] / paper[1],
            seq / t1, unit="x"),
    )
    checks = (
        _check("fine-grained multithreading gives ~20x over sequential "
               "on one processor", 15.0 <= seq / t1 <= 26.0,
               f"ratio {seq/t1:.1f}"),
        _check("two-processor speedup ~1.4 (network-bound, worse than "
               "Threat Analysis)", 1.25 <= t1 / t2 <= 1.55,
               f"speedup {t1/t2:.2f}"),
    )
    return ExperimentResult("table11",
                            "Fine-grained Terrain Masking on "
                            "dual-processor Tera MTA (Table 11)",
                            rows, checks)


def table12(data: BenchmarkData) -> ExperimentResult:
    """Terrain Masking cross-platform summary (Table 12)."""
    seq_job = data.terrain_sequential_job()
    fg_job = data.terrain_finegrained_job()
    t_mta1 = data.run_mta(1, fg_job)
    t_mta2 = data.run_mta(2, fg_job)
    t_ex8 = data.exemplar(8, data.terrain_blocked_job(8))
    rows = (
        Row("none / Alpha", 158.0, data.alpha(seq_job)),
        Row("none / Pentium Pro", 197.0, data.ppro(1, seq_job)),
        Row("none / Exemplar", 228.0, data.exemplar(1, seq_job)),
        Row("none / Tera", 978.0, data.run_mta(1, seq_job)),
        Row("automatic / Exemplar", 228.0, data.exemplar(1, seq_job)),
        Row("automatic / Tera", 978.0, data.run_mta(1, seq_job)),
        Row("manual / Pentium Pro (4p)", 65.0,
            data.ppro(4, data.terrain_blocked_job(4))),
        Row("manual / Exemplar (4p)", 59.0,
            data.exemplar(4, data.terrain_blocked_job(4))),
        Row("manual / Exemplar (8p)", 37.0, t_ex8),
        Row("manual / Exemplar (16p)", 37.0,
            data.exemplar(16, data.terrain_blocked_job(16))),
        Row("manual / Tera (1p)", 48.0, t_mta1),
        Row("manual / Tera (2p)", 34.0, t_mta2),
    )
    checks = (
        _check("two Tera processors ~ eight Exemplar processors "
               "(within 25%)", _close(t_mta2, t_ex8, 0.25),
               f"Tera 2p {t_mta2:.0f}s vs Exemplar 8p {t_ex8:.0f}s"),
        _check("multithreaded Tera (1p) beats sequential Alpha by 2-3.5x",
               2.0 <= data.alpha(seq_job) / t_mta1 <= 3.6,
               f"ratio {data.alpha(seq_job)/t_mta1:.1f}"),
    )
    return ExperimentResult("table12",
                            "Terrain Masking performance comparison "
                            "(Table 12)", rows, checks)


# ----------------------------------------------------------------------
# Automatic parallelization and micro-claims
# ----------------------------------------------------------------------

def autopar(_data: BenchmarkData) -> ExperimentResult:
    """The compilers' verdicts on Programs 1-4 (Sections 5 and 6)."""
    from repro.compiler import (
        parallelize,
        terrain_blocked_ir,
        terrain_sequential_ir,
        threat_chunked_ir,
        threat_sequential_ir,
    )
    r_ts = parallelize(threat_sequential_ir())
    r_tc = parallelize(threat_chunked_ir(with_pragma=True))
    r_tc0 = parallelize(threat_chunked_ir(with_pragma=False))
    r_ms = parallelize(terrain_sequential_ir())
    r_mb = parallelize(terrain_blocked_ir(with_pragma=True))
    r_mb0 = parallelize(terrain_blocked_ir(with_pragma=False))
    rows = (
        Row("Threat seq: loops auto-parallelized", 0,
            r_ts.n_parallelized, unit="loops"),
        Row("Terrain seq: loops auto-parallelized", 0,
            r_ms.n_parallelized, unit="loops"),
        Row("Threat chunked w/o pragma: parallelized", 0,
            r_tc0.n_parallelized, unit="loops"),
        Row("Terrain blocked w/o pragma: parallelized", 0,
            r_mb0.n_parallelized, unit="loops"),
        Row("Threat chunked with pragma: parallelized", 1,
            r_tc.n_parallelized, unit="loops"),
        Row("Terrain blocked with pragma: parallelized", 1,
            r_mb.n_parallelized, unit="loops"),
    )
    checks = (
        _check("no practical parallelism found in either sequential "
               "program", r_ts.n_parallelized == 0
               and r_ms.n_parallelized == 0),
        _check("even the restructured programs need the explicit pragma",
               r_tc0.n_parallelized == 0 and r_mb0.n_parallelized == 0),
        _check("with the pragma, exactly the annotated loop "
               "parallelizes",
               r_tc.n_parallelized == 1 and r_mb.n_parallelized == 1
               and all(r.by_pragma for r in r_tc.parallelized_loops)),
    )
    return ExperimentResult("autopar",
                            "Automatic parallelization outcome "
                            "(Sections 5-6)", rows, checks)


def micro(_data: BenchmarkData) -> ExperimentResult:
    """The Section 7 micro-claims, from the cycle-level simulator."""
    from repro.mta import MtaSpec, MtaSystem, alu_kernel
    from repro.mta.system import load_use_kernel
    from repro.threads.costs import COST_TABLE

    spec = MtaSpec(n_processors=1)
    sys1 = MtaSystem(spec)
    sys1.add_stream(alu_kernel(100))
    s1 = sys1.run()
    util_1 = s1.utilization

    def util(n_streams):
        sysn = MtaSystem(MtaSpec(n_processors=1, lookahead=1,
                                 mem_latency_cycles=80.0))
        for s in range(n_streams):
            sysn.add_stream(load_use_kernel(30, base=s * 100_000))
        return sysn.run().utilization

    u20, u80 = util(20), util(80)
    costs = {c.platform: c for c in COST_TABLE}
    hw = costs["Tera MTA (compiler-created hardware streams)"]
    sw = costs["Tera MTA (software threads / futures)"]
    nt = costs["Pentium Pro / Windows NT (Win32 threads)"]
    rows = (
        Row("single-stream utilization", 1 / 21.0, util_1, unit="x"),
        Row("utilization at 20 streams (load-use kernel)", None, u20,
            unit="x"),
        Row("utilization at 80 streams (load-use kernel)", 0.95, u80,
            unit="x"),
        Row("hw thread creation", 2.0, hw.create_cycles, unit="cycles"),
        Row("sw thread creation", 75.0, sw.create_cycles, unit="cycles"),
        Row("MTA synchronization", 1.0, hw.sync_cycles, unit="cycles"),
        Row("NT thread creation", 100_000.0, nt.create_cycles,
            unit="cycles"),
    )
    checks = (
        _check("a single stream issues one instruction per 21 cycles "
               "(~5% utilization)", _close(util_1, 1 / 21.0, 0.05),
               f"utilization {util_1:.4f}"),
        _check("~80 streams needed for full utilization on load-use "
               "code", u20 < 0.55 and u80 > 0.90,
               f"20 streams {u20:.2f}, 80 streams {u80:.2f}"),
        _check("MTA thread operations are orders of magnitude cheaper "
               "than OS threads",
               nt.create_cycles / hw.create_cycles >= 1_000),
    )
    return ExperimentResult("micro",
                            "Section 7 micro-claims (cycle-level "
                            "simulation)", rows, checks)


# ----------------------------------------------------------------------
# Taskbench: parameterized task graphs across three machine families
# ----------------------------------------------------------------------

#: Fixed-total-work grain pair: ~384 grain units as 384 fine tasks
#: (width 64) vs 48 coarse tasks of grain 8 (width 8).  The mesh
#: topology keeps every level the same width, so the two jobs differ
#: only in how finely the same work is divided.
TASKBENCH_FINE = "tb-mesh-w64-d6-g1-s0-hw"
TASKBENCH_COARSE = "tb-mesh-w8-d6-g8-s0-hw"

#: One small graph per remaining topology (generator span coverage).
TASKBENCH_TOPOLOGY_RECIPES = (
    "tb-stencil-w8-d4-g1-s0-hw",
    "tb-fanout-w8-d4-g1-s0-hw",
    "tb-tree-w16-d5-g1-s0-hw",
)


def taskbench(data: BenchmarkData) -> ExperimentResult:
    """Cross-machine sanity ordering on generated task graphs.

    The paper's stream-saturation story, retold on synthetic graphs
    across all three machine families: dividing a fixed amount of work
    into finer tasks is free (or better) where hardware thread contexts
    are cheap -- the MTA's streams and the T3-4's strands -- but
    convoys on the serialized OS-thread creation cost of a conventional
    SMP.  The checks assert the *ordering*, not absolute times, so they
    are robust to recalibration of any one machine.
    """
    fine = data.taskbench_job(TASKBENCH_FINE)
    coarse = data.taskbench_job(TASKBENCH_COARSE)
    mta_f, mta_c = data.run_mta(1, fine), data.run_mta(1, coarse)
    cmt_f, cmt_c = data.cmt(256, fine), data.cmt(256, coarse)
    ex_f, ex_c = data.exemplar(16, fine), data.exemplar(16, coarse)
    mta_ratio = mta_f / mta_c
    cmt_ratio = cmt_f / cmt_c
    ex_ratio = ex_f / ex_c
    rows = [
        Row("MTA[1p] mesh fine (w64 g1)", None, mta_f, unit="s"),
        Row("MTA[1p] mesh coarse (w8 g8)", None, mta_c, unit="s"),
        Row("T3-4[256] mesh fine (w64 g1)", None, cmt_f, unit="s"),
        Row("T3-4[256] mesh coarse (w8 g8)", None, cmt_c, unit="s"),
        Row("Exemplar[16p] mesh fine (w64 g1)", None, ex_f, unit="s"),
        Row("Exemplar[16p] mesh coarse (w8 g8)", None, ex_c, unit="s"),
        Row("fine/coarse ratio: MTA", None, mta_ratio),
        Row("fine/coarse ratio: T3-4", None, cmt_ratio),
        Row("fine/coarse ratio: Exemplar", None, ex_ratio),
    ]
    topo_times = []
    for recipe in TASKBENCH_TOPOLOGY_RECIPES:
        job = data.taskbench_job(recipe)
        t_mta, t_cmt = data.run_mta(1, job), data.cmt(64, job)
        topo_times += [t_mta, t_cmt]
        rows.append(Row(f"MTA[1p] {recipe}", None, t_mta, unit="s"))
        rows.append(Row(f"T3-4[64] {recipe}", None, t_cmt, unit="s"))
    checks = (
        _check("MTA streams absorb fine grain (fine no slower than "
               "coarse)", mta_ratio <= 1.2,
               f"fine/coarse {mta_ratio:.3f}"),
        _check("T3-4 strands absorb fine grain", cmt_ratio <= 1.5,
               f"fine/coarse {cmt_ratio:.3f}"),
        _check("the SMP convoys on OS-thread creation at fine grain",
               ex_ratio >= 3.0, f"fine/coarse {ex_ratio:.3f}"),
        _check("grain sensitivity ordering: SMP at least 2x worse than "
               "the CMT", ex_ratio >= 2.0 * cmt_ratio,
               f"Exemplar {ex_ratio:.2f} vs T3-4 {cmt_ratio:.2f}"),
        _check("both multithreaded families beat the SMP outright on "
               "the fine-grained graph",
               mta_f <= ex_f and cmt_f <= ex_f,
               f"MTA {mta_f:.3e}s, T3-4 {cmt_f:.3e}s, "
               f"Exemplar {ex_f:.3e}s"),
        _check("every topology produces a finite, positive runtime on "
               "both multithreaded families",
               all(t > 0.0 for t in topo_times)),
    )
    return ExperimentResult(
        "taskbench",
        "Generated task graphs: grain sensitivity across machine "
        "families", tuple(rows), checks)


# ----------------------------------------------------------------------
# registry plumbing
# ----------------------------------------------------------------------

def sensitivity(data: BenchmarkData) -> ExperimentResult:
    """Single-constant +/-25% perturbations of the calibrated model."""
    from repro.harness.sensitivity import (
        qualitative_conclusions_hold,
        run_sensitivity,
    )
    srows = run_sensitivity(data)
    rows = tuple(
        Row(f"{r.parameter} -> {r.output} (swing)", None, r.swing_pct,
            unit="%")
        for r in srows
    )
    holds = qualitative_conclusions_hold(srows)
    max_swing = max(r.swing_pct for r in srows)
    checks = (
        _check("the paper's qualitative conclusions survive every "
               "single-constant +/-25% perturbation", holds),
        _check("no probed constant swings any headline output by more "
               "than 50%", max_swing <= 50.0,
               f"max swing {max_swing:.1f}%"),
    )
    return ExperimentResult(
        "sensitivity",
        "Calibration sensitivity (+/-25% single-constant perturbations)",
        rows, checks)


def _ablation(name: str) -> Callable[[BenchmarkData], ExperimentResult]:
    def run(data: BenchmarkData) -> ExperimentResult:
        from repro.harness import ablations
        return getattr(ablations, name)(data)
    return run


_EXPERIMENTS: dict[str, Callable[[BenchmarkData], ExperimentResult]] = {
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "table8": table8,
    "table9": table9,
    "table10": table10,
    "table11": table11,
    "table12": table12,
    "autopar": autopar,
    "micro": micro,
    "scaling": _ablation("scaling"),
    "threat-alternative": _ablation("threat_alternative"),
    "ablation-finegrained-smp": _ablation("finegrained_smp"),
    "ablation-network": _ablation("network"),
    "ablation-issue": _ablation("issue_interval"),
    "ablation-cache": _ablation("cache_size"),
    "ablation-temp-memory": _ablation("temp_memory"),
    "seed-robustness": _ablation("seed_robustness"),
    "sensitivity": sensitivity,
    "taskbench": taskbench,
}

#: figures are produced by the same experiments as their tables
_ALIASES = {"fig1": "table3", "fig2": "table4", "fig3": "table9",
            "fig4": "table10"}

EXPERIMENT_IDS = tuple(_EXPERIMENTS)


def list_experiments() -> list[str]:
    """All runnable experiment ids (aliases included)."""
    return list(_EXPERIMENTS) + list(_ALIASES)


def run_experiment(experiment_id: str,
                   data: Optional[BenchmarkData] = None
                   ) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"table5"`` or ``"fig2"``)."""
    key = _ALIASES.get(experiment_id, experiment_id)
    if key not in _EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; "
                       f"known: {list_experiments()}")
    if data is None:
        data = default_data()
    return _EXPERIMENTS[key](data)
