"""Experiment harness: regenerate every table and figure of the paper.

Usage::

    from repro.harness import list_experiments, run_experiment

    print(list_experiments())
    result = run_experiment("table5")
    print(result.render())
    assert result.all_checks_pass()

Experiment ids: ``table2`` .. ``table12`` (with ``fig1`` .. ``fig4``
aliasing their tables), ``autopar``, and ``micro`` (the Section 7
micro-claims).  Each result carries the paper's value and the
simulated value for every row, plus the *shape checks* that define
reproduction success (who wins, by what factor, where saturation
falls).
"""

from repro.harness.experiment import ExperimentResult, Row, ShapeCheck
from repro.harness.registry import (
    EXPERIMENT_IDS,
    list_experiments,
    run_experiment,
)
from repro.harness.runner import BenchmarkData, default_data
from repro.harness.tables import render_comparison_table
from repro.harness.figures import render_speedup_figure

__all__ = [
    "BenchmarkData",
    "EXPERIMENT_IDS",
    "ExperimentResult",
    "Row",
    "ShapeCheck",
    "default_data",
    "list_experiments",
    "render_comparison_table",
    "render_speedup_figure",
    "run_experiment",
]
