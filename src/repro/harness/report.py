"""Generate EXPERIMENTS.md: paper-vs-simulated for every table/figure.

    python -m repro.harness.report > EXPERIMENTS.md
"""

from __future__ import annotations

import sys

from repro.harness.calibration import (
    DEFAULT_TERRAIN_SCALE,
    DEFAULT_THREAT_SCALE,
)
from repro.harness.runner import BenchmarkData

_FIGURES = {"table3": "Figure 1", "table4": "Figure 2",
            "table9": "Figure 3", "table10": "Figure 4"}


def generate(threat_scale: float = DEFAULT_THREAT_SCALE,
             terrain_scale: float = DEFAULT_TERRAIN_SCALE,
             jobs: int = 1) -> str:
    return generate_with_results(threat_scale, terrain_scale,
                                 jobs=jobs)[0]


def generate_with_results(threat_scale: float = DEFAULT_THREAT_SCALE,
                          terrain_scale: float = DEFAULT_TERRAIN_SCALE,
                          jobs: int = 1,
                          cell_sink=None):
    """Like :func:`generate`, but also returns the raw results.

    Returns ``(text, results, profiles)`` so callers persisting run
    artifacts (``repro report``) can store the machine-readable report
    alongside the rendered markdown.
    """
    from repro.harness.parallel import run_experiments

    data = BenchmarkData(threat_scale=threat_scale,
                         terrain_scale=terrain_scale)
    results, profiles = run_experiments(threat_scale=threat_scale,
                                        terrain_scale=terrain_scale,
                                        jobs=jobs, data=data,
                                        cell_sink=cell_sink)

    lines = [
        "# EXPERIMENTS -- paper vs simulated, every table and figure",
        "",
        "Generated by `python -m repro.harness.report`.  Simulated",
        "values come from the machine models driven by instrumented",
        f"kernel runs at reduced scale (threat {threat_scale},",
        f"terrain {terrain_scale}; extrapolation is work-exact -- see",
        "the workload modules).  Absolute agreement is a calibration",
        "outcome for the sequential baselines; every *speedup, ratio,",
        "crossover and saturation point* is emergent from the machine",
        "models (see `repro/harness/calibration.py`).",
        "",
        "Reproduction criterion: the shape checks below, which encode",
        "who wins, by roughly what factor, and where scaling saturates.",
        "",
    ]
    n_checks = 0
    n_passed = 0
    for eid, res in results.items():
        fig = f" / {_FIGURES[eid]}" if eid in _FIGURES else ""
        lines.append(f"## {eid}{fig}: {res.title}")
        lines.append("")
        lines.append("| row | paper | simulated | error |")
        lines.append("|---|---:|---:|---:|")
        for row in res.rows:
            paper = "-" if row.paper is None else f"{row.paper:g}"
            err = ("-" if row.error_pct is None
                   else f"{row.error_pct:+.1f}%")
            unit = "" if row.unit == "s" else f" {row.unit}"
            lines.append(f"| {row.label} | {paper}{unit} | "
                         f"{row.simulated:.4g}{unit} | {err} |")
        lines.append("")
        if res.checks:
            lines.append("Shape checks:")
            lines.append("")
            for c in res.checks:
                n_checks += 1
                n_passed += c.passed
                mark = "x" if c.passed else " "
                detail = f" -- {c.detail}" if c.detail else ""
                lines.append(f"- [{mark}] {c.description}{detail}")
            lines.append("")
    lines.insert(14, f"**{n_passed}/{n_checks} shape checks pass.**")
    lines.insert(15, "")
    return "\n".join(lines) + "\n", results, profiles


def main() -> None:
    sys.stdout.write(generate())


if __name__ == "__main__":
    main()
