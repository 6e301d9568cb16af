"""The typed metric vocabulary spans may carry.

Every metric attached to a :class:`~repro.obs.span.Span` is a float
keyed by a name from this vocabulary.  The fixed names cover the
paper's evaluation quantities (wall time, memory references / bytes
moved, cache hits and misses, simulated cycles) plus pipeline progress
counts (tasks, voxels, tiles, solver iterations); two open namespaces
extend it without registration:

* ``pc.<field>`` — a :class:`~repro.hw.counters.PerfCounters` field
  (the paper's Table-1 vocabulary) attributed to the span;
* ``ctr.<name>`` — a free-form run counter (tiles walked, wire bytes,
  ...) written by :meth:`repro.exec.context.RunContext.increment`.

Exporters and the regression harness rely on :func:`is_timing_metric`
to know which metrics are wall-clock-dependent (and therefore excluded
from cross-executor trace equivalence).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MetricSpec",
    "METRICS",
    "WALL_SECONDS",
    "BYTES_MOVED",
    "TASKS",
    "VOXELS",
    "TILES",
    "TILES_PRUNED",
    "ROWS",
    "COLS",
    "NNZ",
    "ELEMENTS",
    "DENSITY",
    "VOXEL_SWEEP",
    "TARGET_BLOCK",
    "ITERATIONS",
    "PROBLEMS",
    "TRS",
    "CALLS",
    "PREDICTED_SECONDS",
    "PREDICTED_GFLOPS",
    "COMM_FETCH_WAIT",
    "OVERLAP_HIDDEN_SECONDS",
    "is_known_metric",
    "is_timing_metric",
    "validate_metric",
]


@dataclass(frozen=True)
class MetricSpec:
    """One registered metric: its key, unit, and meaning."""

    name: str
    unit: str
    description: str
    #: Wall-clock-dependent metrics differ between two otherwise
    #: identical runs; structural trace comparison ignores them.
    timing: bool = False


#: Wall-clock seconds spent inside the span (set automatically on close).
WALL_SECONDS = MetricSpec(
    "wall_seconds", "s", "wall-clock seconds inside the span", timing=True
)
#: Bytes read plus written by the span's kernel(s).
BYTES_MOVED = MetricSpec("bytes_moved", "bytes", "bytes read + written")
#: Pipeline tasks completed inside the span.
TASKS = MetricSpec("tasks", "count", "pipeline tasks processed")
#: Assigned voxels processed inside the span.  On ``smo.solve_batch``
#: it counts rows of the solver's batch axis, which since the
#: fold-stacked cross-validation is voxels x folds (== ``problems``).
VOXELS = MetricSpec("voxels", "count", "assigned voxels processed")
#: Stage-1/2 tiles (normalization sweeps) processed.
TILES = MetricSpec("tiles", "count", "stage-1/2 tiles processed")
#: Sparse stage-1/2 tiles whose filter kept nothing.
TILES_PRUNED = MetricSpec(
    "tiles_pruned", "count", "sparse tiles with no surviving entries"
)
#: Row extent of a 2-D correlation tile (owner panel's voxel count).
ROWS = MetricSpec("rows", "count", "row extent of a 2-D tile")
#: Column extent of a 2-D correlation tile.
COLS = MetricSpec("cols", "count", "column extent of a 2-D tile")
#: Gram-rule column chunks a 2-D tile reduced (one partial Gram each).
GRAM_CHUNKS = MetricSpec(
    "gram_chunks", "count", "Gram-rule chunks a 2-D tile reduced"
)
#: Bytes of the result a work item ships (a tile's partial Grams).
BYTES_OUT = MetricSpec("bytes_out", "bytes", "bytes of the shipped result")
#: Stored entries of a sparse kernel's output (CSR nnz).
NNZ = MetricSpec("nnz", "count", "stored (non-pruned) output entries")
#: Dense elements the kernel scanned to produce its output.
ELEMENTS = MetricSpec("elements", "count", "dense elements scanned")
#: Kept fraction nnz / elements, in [0, 1].
DENSITY = MetricSpec("density", "fraction", "kept fraction of dense output")
#: Voxel-slab width of the sparse tile loop (``BlockingPlan.voxel_block``).
VOXEL_SWEEP = MetricSpec("voxel_sweep", "voxels", "sparse tile slab width")
#: Target-column width of the sparse tile loop.
TARGET_BLOCK = MetricSpec("target_block", "voxels", "sparse tile column width")
#: Solver (SMO) working-set iterations performed.
ITERATIONS = MetricSpec("iterations", "count", "solver iterations")
#: Independent SVM problems one batched solve carried (rows of its
#: batch axis: voxels x cross-validation folds in FCMA stage 3).
PROBLEMS = MetricSpec("problems", "count", "SVM problems in a batched solve")
#: TR volumes a streaming kernel span covered (the length of the epoch
#: the rtfmri loop's feedback kernel classified).
TRS = MetricSpec("trs", "count", "TR volumes processed by the span")
#: Times the spanned operation ran (aggregation weight for merged spans).
CALLS = MetricSpec("calls", "count", "number of calls aggregated")
#: Model-predicted elapsed seconds for the spanned kernel (attached by
#: the performance observatory, :mod:`repro.obs.perf`).  Deterministic
#: given geometry + machine spec, so *not* a timing metric: two enriched
#: runs of the same pipeline must predict identically.
PREDICTED_SECONDS = MetricSpec(
    "predicted_seconds", "s", "model-predicted elapsed seconds"
)
#: Model-predicted GFLOPS at the predicted time (same provenance).
PREDICTED_GFLOPS = MetricSpec(
    "predicted_gflops", "GFLOPS", "model-predicted achieved GFLOPS"
)
#: Exposed (non-overlapped) seconds a tiled worker waited for its next
#: work item (the prefetch-overlap instrumentation's residual).  Pure
#: wall clock, so excluded from cross-executor trace equivalence.
COMM_FETCH_WAIT = MetricSpec(
    "comm.fetch_wait", "s", "exposed wait for the next work item",
    timing=True,
)
#: Seconds of fetch latency hidden behind compute by prefetching.
#: Recorded through :meth:`repro.exec.context.RunContext.increment`, so
#: the metric name carries the counter-namespace ``ctr.`` prefix; the
#: explicit registration (rather than open-namespace fallback) is what
#: classifies it as a timing metric.
OVERLAP_HIDDEN_SECONDS = MetricSpec(
    "ctr.overlap_hidden_seconds", "s",
    "fetch latency hidden behind compute by prefetch overlap",
    timing=True,
)

#: The closed part of the vocabulary, keyed by metric name.
METRICS: dict[str, MetricSpec] = {
    spec.name: spec
    for spec in (
        WALL_SECONDS,
        BYTES_MOVED,
        TASKS,
        VOXELS,
        TILES,
        TILES_PRUNED,
        ROWS,
        COLS,
        GRAM_CHUNKS,
        BYTES_OUT,
        NNZ,
        ELEMENTS,
        DENSITY,
        VOXEL_SWEEP,
        TARGET_BLOCK,
        ITERATIONS,
        PROBLEMS,
        TRS,
        CALLS,
        PREDICTED_SECONDS,
        PREDICTED_GFLOPS,
        COMM_FETCH_WAIT,
        OVERLAP_HIDDEN_SECONDS,
    )
}

#: Open namespaces: ``pc.`` (PerfCounters fields), ``ctr.`` (run
#: counters).
_OPEN_PREFIXES = ("pc.", "ctr.")


def is_known_metric(name: str) -> bool:
    """Whether ``name`` is registered or in an open namespace."""
    return name in METRICS or name.startswith(_OPEN_PREFIXES)


def is_timing_metric(name: str) -> bool:
    """Whether the metric is wall-clock-dependent (see :class:`MetricSpec`)."""
    spec = METRICS.get(name)
    return spec.timing if spec is not None else False


def validate_metric(name: str, value: float) -> float:
    """Check a metric assignment; returns the value as ``float``.

    Raises ``ValueError`` for unknown names (outside both the fixed
    vocabulary and the open namespaces) and non-finite values — catching typos at
    the recording site instead of at export time.
    """
    if not is_known_metric(name):
        raise ValueError(
            f"unknown metric {name!r}; register it in repro.obs.metrics or "
            f"use the pc./ctr. namespaces"
        )
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"metric {name!r} must be finite, got {value!r}")
    return value
