"""Benchmark harness support: paper reference data, the claims ledger
that compares the models against it, and table rendering."""

from . import paperdata
from .experiments import (
    EXPERIMENTS,
    Claim,
    claims,
    list_experiments,
    render_claims,
    run_experiment,
    run_gate,
)
from .tables import compare_row, render_table, within_factor

__all__ = [
    "Claim",
    "EXPERIMENTS",
    "claims",
    "compare_row",
    "list_experiments",
    "paperdata",
    "render_claims",
    "render_table",
    "run_experiment",
    "run_gate",
    "within_factor",
]
