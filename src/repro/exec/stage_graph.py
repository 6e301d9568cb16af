"""The FCMA pipeline as an explicit stage graph.

:class:`StageGraph` expresses the paper's three-stage pipeline —
correlate (Section 3.1 stage 1), normalize (stage 2), SVM-score
(stage 3) — as named nodes with declared inputs and outputs.  Each
node's wall time is charged to the :class:`~repro.exec.context.RunContext`
under the node's name, so every executor emits identical per-stage
telemetry.  :func:`execute_task` runs one row task through the graph
and is what every executor — and a ``"task"`` work item of the
master/worker runtime (:mod:`repro.parallel.tiled`) — calls.

``FCMAConfig.variant`` names the graph.  There are two pipelines and
one alternative materialization:

* ``baseline`` — the oracle: three separate nodes (per-epoch gemm
  correlation, separated normalization, LibSVM-style scoring) over a
  materialized ``(V, E, N)`` block;
* ``optimized`` — the paper's Section 4 as the tiled engine
  (``core.engine``), and the walk ends in a Gram: each column chunk of
  the Gram rule is gemm-ed, normalized and reduced to its ``(V, E, E)``
  partial kernel where it was computed (ideas #2 and Section 4.4; see
  ``core.engine.GramEmitter``), dealt to the engine's thread pool, so
  the fused ``correlate+normalize`` node outputs ``kernels`` — stage 3a
  is inside the walk and no ``(V, E, N)`` block exists — and ``score``
  is the batched cross-validation alone.  The body is the one a tiled
  worker runs over a column range (``parallel.tiled``).
  ``optimized-batched`` is an accepted spelling: the same builder is
  registered under both names and nothing branches on which one a
  config used;
* ``sparse-batched`` — the same engine walk filtered to CSR while each
  tile is resident, scored through sparse Grams.

``baseline`` and ``optimized`` select the same voxels with the same
accuracies; the equivalence is pinned by ``tests/exec`` and
``tests/integration``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np
from numpy.typing import NDArray

from ..core.correlation import correlate_baseline, stage1_input_copies
from ..core.engine import GramEmitter, run_engine, thread_budget
from ..core.kernels import sum_gram_partials
from ..core.normalization import normalize_separated
from ..core.results import VoxelScores
from ..core.sparse import CSREmitter
from ..core.voxel_selection import (
    score_kernels,
    score_voxels,
    score_voxels_sparse,
)
from ..svm.cross_validation import cv_fold_ids
from .context import RunContext
from .registry import create_backend, register_variant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.dataset import FMRIDataset

__all__ = [
    "Stage",
    "StageGraph",
    "StageGraphError",
    "baseline_graph",
    "optimized_graph",
    "sparse_batched_graph",
    "build_graph",
    "execute_task",
    "score_kernel_panel",
    "score_panel",
]

#: A stage body: reads its declared inputs from the state mapping and
#: returns its outputs as a new mapping.
StageFn = Callable[[RunContext, Mapping[str, Any]], Mapping[str, Any]]


class StageGraphError(ValueError):
    """An ill-formed stage graph (dangling input, duplicate name, ...)."""


@dataclass(frozen=True)
class Stage:
    """One node of the pipeline: a named, typed transformation."""

    name: str
    fn: StageFn
    #: State keys the node reads; each must be seeded or produced by an
    #: earlier node.
    inputs: tuple[str, ...]
    #: State keys the node must produce.
    outputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise StageGraphError("stage name must be non-empty")
        if not self.outputs:
            raise StageGraphError(f"stage {self.name!r} declares no outputs")


@dataclass(frozen=True)
class StageGraph:
    """A linear chain of stages with validated dataflow.

    ``validate`` checks the chain once at build time: names unique,
    every input either in ``seeds`` (the keys the caller provides) or
    produced by an earlier stage.  ``run`` then executes the chain,
    timing each node through the context.
    """

    stages: tuple[Stage, ...]
    #: State keys the caller seeds (the graph's external inputs).
    seeds: tuple[str, ...]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`StageGraphError` if the dataflow is broken."""
        if not self.stages:
            raise StageGraphError("a stage graph needs at least one stage")
        seen: set[str] = set()
        available = set(self.seeds)
        for stage in self.stages:
            if stage.name in seen:
                raise StageGraphError(f"duplicate stage name {stage.name!r}")
            seen.add(stage.name)
            missing = [k for k in stage.inputs if k not in available]
            if missing:
                raise StageGraphError(
                    f"stage {stage.name!r} reads {missing} before any "
                    f"earlier stage (or seed) produces them"
                )
            available.update(stage.outputs)

    @property
    def stage_names(self) -> tuple[str, ...]:
        """Node names in execution order (the timing keys)."""
        return tuple(s.name for s in self.stages)

    def run(self, ctx: RunContext, **seeds: Any) -> dict[str, Any]:
        """Execute the chain; returns the final state mapping."""
        missing = [k for k in self.seeds if k not in seeds]
        if missing:
            raise StageGraphError(f"missing seed values: {missing}")
        state: dict[str, Any] = dict(seeds)
        for stage in self.stages:
            inputs = {k: state[k] for k in stage.inputs}
            with ctx.timer(stage.name):
                produced = stage.fn(ctx, inputs)
            absent = [k for k in stage.outputs if k not in produced]
            if absent:
                raise StageGraphError(
                    f"stage {stage.name!r} did not produce {absent}"
                )
            state.update(produced)
        return state


# -- the FCMA stage bodies ------------------------------------------------


def _preprocess(ctx: RunContext, state: Mapping[str, Any]) -> Mapping[str, Any]:
    from ..core.pipeline import preprocess_dataset

    ds, z = preprocess_dataset(state["dataset"])
    return {"grouped": ds, "windows": z}


def _correlate_baseline(
    ctx: RunContext, state: Mapping[str, Any]
) -> Mapping[str, Any]:
    with ctx.tracer.span("correlate_baseline", kind="kernel") as span:
        corr = correlate_baseline(state["windows"], state["assigned"])
        span.add_metric("voxels", float(state["assigned"].size))
        span.add_metric("bytes_moved", float(state["windows"].nbytes + corr.nbytes))
    return {"correlations": corr}


def _normalize_separated(
    ctx: RunContext, state: Mapping[str, Any]
) -> Mapping[str, Any]:
    corr = state["correlations"]
    with ctx.tracer.span("normalize_separated", kind="kernel") as span:
        normalize_separated(corr, state["grouped"].epochs.epochs_per_subject())
        span.add_metric("bytes_moved", float(2 * corr.nbytes))
    return {"correlations": corr}


def _note_walk(
    ctx: RunContext, rows: int, tile_cols: int, gemm_cols: int, n_epochs: int
) -> None:
    """Record the tile the engine walked (``fcma run --json``): its rows,
    column width (a Gram chunk, or the sparse tile) and epochs — a tile
    holds every epoch — the column block its gemm was issued in (the
    whole sparse tile), and the derived thread budget."""
    ctx.metadata["blocking_plan"] = {
        "voxel_block": rows,
        "target_block": gemm_cols,
        "epoch_block": n_epochs,
        "tile_cols": tile_cols,
        "engine_threads": thread_budget(),
    }


def _note_emitter(ctx: RunContext, name: str) -> None:
    """Per-emitter RunContext accounting shared by the engine stages."""
    ctx.metadata["emitter"] = name
    ctx.increment(f"emitter_{name}_runs", 1)


def _correlate_batched_fused(
    ctx: RunContext, state: Mapping[str, Any]
) -> Mapping[str, Any]:
    z = state["windows"]
    assigned = state["assigned"]
    e_per_subject = state["grouped"].epochs.epochs_per_subject()
    input_copies = stage1_input_copies(z)
    emitter = GramEmitter()

    with ctx.tracer.span("correlate_normalize_batched", kind="kernel") as span:
        kernels = sum_gram_partials(run_engine(z, assigned, e_per_subject, emitter))
        n_chunks = len(emitter.chunks)
        _note_walk(
            ctx, assigned.size, emitter.tile_cols, emitter.gemm_cols, z.shape[0]
        )
        span.add_metric("tiles", float(n_chunks))
        span.add_metric("voxels", float(assigned.size))
        # Read z, computed (never stored) the normalized (V, E, N) block.
        span.add_metric(
            "bytes_moved",
            float(z.nbytes + assigned.size * z.shape[0] * z.shape[1] * 4),
        )
        span.add_metric("gram_chunks", float(n_chunks))
        span.add_metric("bytes_out", float(kernels.nbytes))
    _note_emitter(ctx, "dense")
    ctx.increment("stage12_tiles", n_chunks)
    ctx.increment("emitter_dense_tiles", n_chunks)
    if input_copies:
        ctx.increment("stage12_out_copies", input_copies)
    return {"kernels": kernels}


def _correlate_sparse_fused(
    ctx: RunContext, state: Mapping[str, Any]
) -> Mapping[str, Any]:
    config = ctx.config
    z = state["windows"]
    assigned = state["assigned"]
    e_per_subject = state["grouped"].epochs.epochs_per_subject()
    input_copies = stage1_input_copies(z)
    # The emitter's own default plan (`sparse_tile_plan`, which depends
    # on the mode) sizes the tiles; the walked tile is read back.
    emitter = CSREmitter(threshold=config.threshold, top_k=config.top_k)

    with ctx.tracer.span("correlate_normalize_sparse", kind="kernel") as span:
        result, stats = run_engine(z, assigned, e_per_subject, emitter)
        sweep, t_block = emitter.tile_rows, emitter.tile_cols
        _note_walk(ctx, sweep, t_block, t_block, z.shape[0])
        span.add_metric("tiles", float(stats.n_tiles))
        span.add_metric("tiles_pruned", float(stats.tiles_pruned))
        span.add_metric("voxels", float(assigned.size))
        span.add_metric("nnz", float(stats.nnz))
        span.add_metric("elements", float(stats.elements))
        span.add_metric("density", stats.density)
        span.add_metric("voxel_sweep", float(sweep))
        span.add_metric("target_block", float(t_block))
        span.add_metric(
            "bytes_moved",
            float(
                z.nbytes
                + result.data.nbytes
                + result.indices.nbytes
                + result.indptr.nbytes
            ),
        )
    _note_emitter(ctx, "csr")
    ctx.increment("stage12_tiles", stats.n_tiles)
    ctx.increment("emitter_csr_tiles", stats.n_tiles)
    ctx.increment("stage12_tiles_pruned", stats.tiles_pruned)
    ctx.increment("stage12_nnz", stats.nnz)
    ctx.increment("stage12_elements", stats.elements)
    if input_copies:
        ctx.increment("stage12_out_copies", input_copies)
    return {"sparse_correlations": result}


def _stage3_inputs(
    grouped: "FMRIDataset", config: Any
) -> tuple[NDArray[Any], NDArray[Any], Any, int]:
    """What every stage-3 scorer reads beyond its panel, in their shared
    argument order: labels, CV fold ids, SVM backend, batch width."""
    epochs = grouped.epochs
    return (
        epochs.labels(),
        cv_fold_ids(epochs, config.online_folds),
        create_backend(config),
        config.batch_voxels,
    )


def _score_sparse(ctx: RunContext, state: Mapping[str, Any]) -> Mapping[str, Any]:
    with ctx.tracer.span("score_voxels_sparse", kind="kernel") as span:
        scores = score_voxels_sparse(
            state["sparse_correlations"],
            state["assigned"],
            *_stage3_inputs(state["grouped"], ctx.config),
        )
        span.add_metric("voxels", float(state["assigned"].size))
        span.add_metric("nnz", float(state["sparse_correlations"].nnz))
    return {"scores": scores}


def score_panel(
    grouped: "FMRIDataset",
    config: Any,
    rows: NDArray[Any],
    correlations: NDArray[Any],
    ctx: RunContext,
) -> VoxelScores:
    """Stage 3 of one dense row panel ``(rows, epochs, n_voxels)``: the
    ``score`` node of the baseline and optimized graphs.  The Gram rule
    (:mod:`repro.core.kernels`), then the cross-validation body
    :func:`score_kernel_panel` shares.  ``ctx`` is not read; it is part
    of the signature the benchmark harness calls.
    """
    return score_voxels(correlations, rows, *_stage3_inputs(grouped, config))


def score_kernel_panel(
    grouped: "FMRIDataset",
    config: Any,
    rows: NDArray[Any],
    kernels: NDArray[Any],
) -> VoxelScores:
    """Stage 3b of one row panel's ``(rows, epochs, epochs)`` kernels: a
    ``"score"`` work item of the tiled runtime, whose tiles already
    Gram-ed the panel chunk by chunk."""
    return score_kernels(kernels, rows, *_stage3_inputs(grouped, config))


def _score_dense(ctx: RunContext, state: Mapping[str, Any]) -> Mapping[str, Any]:
    assigned = state["assigned"]
    with ctx.tracer.span("score_voxels", kind="kernel") as span:
        scores = score_panel(
            state["grouped"], ctx.config, assigned, state["correlations"], ctx
        )
        span.add_metric("voxels", float(assigned.size))
    return {"scores": scores}


def _score_kernels(ctx: RunContext, state: Mapping[str, Any]) -> Mapping[str, Any]:
    assigned = state["assigned"]
    with ctx.tracer.span("score_voxels", kind="kernel") as span:
        scores = score_kernel_panel(
            state["grouped"], ctx.config, assigned, state["kernels"]
        )
        span.add_metric("voxels", float(assigned.size))
    return {"scores": scores}


_SEEDS = ("dataset", "assigned")


def baseline_graph(config: Any = None) -> StageGraph:
    """The Section-3.2 pipeline: three separated stages."""
    return StageGraph(
        stages=(
            Stage("preprocess", _preprocess, ("dataset",), ("grouped", "windows")),
            Stage(
                "correlate",
                _correlate_baseline,
                ("windows", "assigned"),
                ("correlations",),
            ),
            Stage(
                "normalize",
                _normalize_separated,
                ("correlations", "grouped"),
                ("correlations",),
            ),
            Stage(
                "score",
                _score_dense,
                ("correlations", "assigned", "grouped"),
                ("scores",),
            ),
        ),
        seeds=_SEEDS,
    )


def optimized_graph(config: Any = None) -> StageGraph:
    """The Section-4 pipeline: the tiled engine, normalization merged
    into correlation, batched scoring."""
    return StageGraph(
        stages=(
            Stage("preprocess", _preprocess, ("dataset",), ("grouped", "windows")),
            Stage(
                "correlate+normalize",
                _correlate_batched_fused,
                ("windows", "assigned", "grouped"),
                ("kernels",),
            ),
            Stage(
                "score",
                _score_kernels,
                ("kernels", "assigned", "grouped"),
                ("scores",),
            ),
        ),
        seeds=_SEEDS,
    )


def sparse_batched_graph(config: Any = None) -> StageGraph:
    """Threshold-during-fuse pipeline: CSR stage 1/2, sparse-Gram stage 3.

    Same fused tile engine as ``optimized``, but each normalized tile
    is filtered (``config.threshold`` /
    ``config.top_k``) into a CSR block while cache-resident; stage 3
    Grams the CSR row bands in nnz-balanced panels through the same
    batched SMO.
    """
    return StageGraph(
        stages=(
            Stage("preprocess", _preprocess, ("dataset",), ("grouped", "windows")),
            Stage(
                "correlate+normalize",
                _correlate_sparse_fused,
                ("windows", "assigned", "grouped"),
                ("sparse_correlations",),
            ),
            Stage(
                "score",
                _score_sparse,
                ("sparse_correlations", "assigned", "grouped"),
                ("scores",),
            ),
        ),
        seeds=_SEEDS,
    )


register_variant("baseline", baseline_graph, overwrite=True)
register_variant("optimized", optimized_graph, overwrite=True)
register_variant("optimized-batched", optimized_graph, overwrite=True)
register_variant("sparse-batched", sparse_batched_graph, overwrite=True)


def build_graph(config: Any) -> StageGraph:
    """The stage graph for a config's registered pipeline variant."""
    from .registry import graph_builder

    builder = graph_builder(config.variant)
    return builder(config)


def execute_task(
    dataset: "FMRIDataset",
    assigned: NDArray[Any],
    ctx: RunContext,
) -> VoxelScores:
    """Run one task's assigned voxels through the configured graph.

    The single implementation behind every executor; the task runs
    inside a ``task`` span (so per-stage wall time lands in ``ctx`` and
    the task's total appears in ``ctx.task_seconds``, both derived from
    the trace).
    """
    assigned = np.asarray(assigned, dtype=np.int64)
    if assigned.ndim != 1 or assigned.size == 0:
        raise ValueError("assigned must be a non-empty 1D index array")
    graph = build_graph(ctx.config)
    with ctx.task_span(assigned.size, int(assigned[0])) as span:
        state = graph.run(ctx, dataset=dataset, assigned=assigned)
        span.add_metric("voxels", float(assigned.size))
    scores = state["scores"]
    assert isinstance(scores, VoxelScores)
    return scores
