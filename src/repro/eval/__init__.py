"""Accuracy evaluation: scoring FCMA against planted ground truth.

The :mod:`repro.eval` package closes the loop the benchmarks leave
open: every perf suite gates *speed* and *bitwise equivalence*, this
package gates whether voxel selection is *right*.  It scores rankings
against the planted informative set (:mod:`repro.eval.accuracy`) and
sweeps scenario grids whose results flatten under the ``acc.*`` names
(:mod:`repro.eval.scenarios`); the accuracy benchmark pins them at
equality against the committed ``BENCH_accuracy.json``.
"""

from .accuracy import (
    SelectionScore,
    average_precision,
    roc_auc,
    score_selection,
    top_k_hit_rate,
)
from .scenarios import (
    Scenario,
    ScenarioMatrix,
    ScenarioResult,
    default_matrix,
    format_accuracy_table,
    matrix_record,
    max_roc_auc,
    run_matrix,
    run_scenario,
    scenario_fcma_config,
    smoke_matrix,
)

__all__ = [
    "Scenario",
    "ScenarioMatrix",
    "ScenarioResult",
    "SelectionScore",
    "average_precision",
    "default_matrix",
    "format_accuracy_table",
    "matrix_record",
    "max_roc_auc",
    "roc_auc",
    "run_matrix",
    "run_scenario",
    "scenario_fcma_config",
    "score_selection",
    "smoke_matrix",
    "top_k_hit_rate",
]
