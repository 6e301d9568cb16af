"""Declared metrics: the names, units and directions ``BENCHMARK.json`` lists.

``BENCHMARK.json`` may hold only name/unit/better(/bound) per metric, so
the per-layer ``moves`` — which end-to-end metric a layer metric should
move, on which workload, written down before measuring — live here and
in the README's interaction table.  ``test_harness.py`` checks that this
file, ``BENCHMARK.json`` and what ``run.py`` emits agree.

``kind``: ``time`` is measured, ``count`` repeats exactly between runs
of one seed, ``computed`` comes from array shapes (ignores cache
misses), ``ratio``/``rate`` are derived from the others, and
``counter`` is read from the program's own byte counters, which include
timing-dependent telemetry frames (repeats to ~1e-7, not exactly).
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    what: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    kind: str
    moves: str


END_TO_END = (
    EndToEnd("wall_s", "s", "lower", 0.25,
             "median seconds of one Executor.run (preprocess cache cleared)"),
    EndToEnd("voxels_per_s", "1/s", "higher", 0.25,
             "scored voxels / wall_s"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "process start to first timed repetition: imports, "
             "generate_dataset, subset draw, warm-up repetition; median of "
             "three cold processes"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "max RSS of the workload process plus its largest spawned worker"),
)

_SVM = "wall_s/voxels_per_s on offline-facescene; no change on sparse-wide"
_ENGINE = ("wall_s on online-wide and the compute half of scaleout-tiles; "
           "no change on offline-facescene")
_SPARSE = "wall_s on sparse-wide only"
_RSS = "peak_rss_mb on sparse-wide vs online-wide"
_SETUP = "setup_s/wall_s on the wide workloads"
_PAR = ("wall_s on scaleout-tiles only (serial workloads bypass it); "
        "parallel.ideal_s bounds what a comm fix can reach")
_RESID = "wall_s on all serial workloads, largest on offline-facescene"
_NONE = "calibration; moves nothing"

PER_LAYER = (
    Layer("data.generate_s", "s", "lower", "time", _SETUP),
    Layer("data.bold_bytes", "B", "lower", "computed", _SETUP),
    Layer("core.preprocess_s", "s", "lower", "time", _SETUP),
    Layer("core.preprocess_bytes", "B", "lower", "computed", _SETUP),
    Layer("core.engine.dense_s", "s", "lower", "time", _ENGINE),
    Layer("core.engine.calls", "count", "lower", "count", _ENGINE),
    Layer("core.engine.flops", "flop", "lower", "computed", _ENGINE),
    Layer("core.engine.bytes_out", "B", "lower", "computed", _RSS),
    Layer("core.engine.gflops", "Gflop/s", "higher", "rate", _ENGINE),
    Layer("core.engine.gemm_floor_s", "s", "lower", "time", _ENGINE),
    Layer("core.engine.normalize_emit_s", "s", "lower", "time", _ENGINE),
    Layer("core.engine.roofline_frac", "ratio", "higher", "ratio", _ENGINE),
    Layer("core.sparse.csr_s", "s", "lower", "time", _SPARSE),
    Layer("core.sparse.nnz", "count", "lower", "count", _SPARSE),
    Layer("core.sparse.density", "ratio", "lower", "ratio", _SPARSE),
    Layer("core.sparse.tiles", "count", "lower", "count", _SPARSE),
    Layer("core.sparse.bytes_out", "B", "lower", "computed", _RSS),
    Layer("core.kernels.gram_s", "s", "lower", "time", "wall_s on online-wide"),
    Layer("core.kernels.gram_flops", "flop", "lower", "computed",
          "wall_s on online-wide"),
    Layer("core.kernels.gram_gflops", "Gflop/s", "higher", "rate",
          "wall_s on online-wide"),
    Layer("svm.cv_s", "s", "lower", "time", _SVM),
    Layer("svm.problems", "count", "lower", "count", _SVM),
    Layer("svm.smo_iterations", "count", "lower", "count", _SVM),
    Layer("svm.us_per_iteration", "us", "lower", "rate", _SVM),
    Layer("core.results.merge_s", "s", "lower", "time", _RESID),
    Layer("core.results.assemble_s", "s", "lower", "time", _PAR),
    Layer("exec.tasks", "count", "lower", "count", _RESID),
    Layer("exec.partition_s", "s", "lower", "time", _RESID),
    Layer("exec.layers_sum_s", "s", "lower", "time", _RESID),
    Layer("exec.residual_s", "s", "lower", "time", _RESID),
    Layer("exec.residual_frac", "ratio", "lower", "ratio", _RESID),
    Layer("obs.spans_per_run", "count", "lower", "count", _RESID),
    Layer("obs.span_cost_us", "us", "lower", "time", _RESID),
    Layer("obs.overhead_frac_est", "ratio", "lower", "ratio", _RESID),
    Layer("parallel.tiled.tiles", "count", "lower", "count", _PAR),
    Layer("parallel.tiled.score_tasks", "count", "lower", "count", _PAR),
    Layer("parallel.tiled.compute_tile_s", "s", "lower", "time", _PAR),
    Layer("parallel.tiled.score_panel_s", "s", "lower", "time", _PAR),
    Layer("parallel.comm.bytes_sent", "B", "lower", "counter", _PAR),
    Layer("parallel.comm.bytes_recv", "B", "lower", "counter", _PAR),
    Layer("parallel.comm.bcast_bytes", "B", "lower", "computed", _PAR),
    Layer("parallel.transport.echo_mb_per_s", "MB/s", "higher", "rate", _PAR),
    Layer("parallel.transport.small_rtt_us", "us", "lower", "time", _PAR),
    Layer("parallel.transport.spawn_accept_s", "s", "lower", "time", _PAR),
    Layer("parallel.ideal_s", "s", "lower", "time", _PAR),
    Layer("parallel.overhead_s", "s", "lower", "time", _PAR),
    Layer("parallel.overhead_frac", "ratio", "lower", "ratio", _PAR),
    Layer("parallel.efficiency", "ratio", "higher", "ratio", _PAR),
    Layer("eval.selection_auc", "ratio", "higher", "ratio",
          "correctness floor 0.95 on offline-facescene; chance on the "
          "single-subject workloads"),
    Layer("machine.sgemm_gflops", "Gflop/s", "higher", "rate", _NONE),
    Layer("machine.stream_gb_per_s", "GB/s", "higher", "rate", _NONE),
    Layer("machine.nproc", "count", "higher", "count", _NONE),
    Layer("machine.blas_threads", "count", "higher", "count", _NONE),
    Layer("bench.paired_wall_s", "s", "lower", "time",
          "the wall time every per-layer ratio is taken against"),
    Layer("bench.trace_overhead_frac", "ratio", "lower", "ratio", _NONE),
)
