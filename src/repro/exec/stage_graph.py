"""The FCMA pipeline as an explicit stage graph: task = walk ∘ score.

:class:`StageGraph` expresses the paper's three-stage pipeline —
correlate (Section 3.1 stage 1), normalize (stage 2), SVM-score
(stage 3) — as named nodes with declared inputs and outputs.  Each
node's wall time is charged to the :class:`~repro.exec.context.RunContext`
under the node's name, so every executor emits identical per-stage
telemetry.  :func:`execute_task` runs one row task through the graph
and is what every executor — and a ``"task"`` work item of the
master/worker runtime (:mod:`repro.parallel.tiled`) — calls.

The hand-off between the two halves of a task is the ``(rows, E, E)``
kernel stack, and each half has one body here:

* :func:`walk` — stages 1 → 2 → 3a of some rows over a column range:
  each column chunk of the Gram rule is gemm-ed, normalized and reduced
  to its partial kernel where it was computed (ideas #2 and Section 4.4;
  ``core.engine.GramEmitter``), so no ``(rows, E, N)`` block exists.
  The only ``run_engine`` call outside ``core``.  A task walks the full
  width; a ``"tile"`` item of the tiled runtime is the same call on a
  column range;
* :func:`score` — stage 3b, the batched cross-validation of those
  kernels, under one ``score_voxels`` span; a ``"score"`` item is this
  call.

``FCMAConfig.variant`` names the graph: ``baseline`` — the oracle: three
separate nodes (per-epoch gemm correlation, separated normalization,
LibSVM-style scoring) over a materialized ``(V, E, N)`` block, Gram-ed
inside its ``score`` node — or walk ∘ score, registered as ``optimized``
(the paper's Section 4), its accepted spelling ``optimized-batched``,
and ``sparse-batched``, for which :func:`walk` filters each tile to CSR
while it is resident (``core.sparse.CSREmitter``) and ends in the sparse
Gram, so no CSR result crosses a stage boundary.

``baseline`` and ``optimized`` select the same voxels with the same
accuracies; the equivalence is pinned by ``tests/exec`` and
``tests/integration``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

import numpy as np
from numpy.typing import NDArray

from ..core.correlation import (
    correlate_baseline,
    stage1_input_copies,
    windows_body,
)
from ..core.engine import GramEmitter, run_engine, thread_budget
from ..core.kernels import kernel_matrix_batched, sum_gram_partials
from ..core.normalization import (
    NormalizationWorkspace,
    normalize_separated,
    normalizer_body,
)
from ..core.results import VoxelScores
from ..core.sparse import CSREmitter
from ..core.voxel_selection import score_kernels, score_voxels
from ..svm.cross_validation import cv_fold_ids
from .context import RunContext
from .registry import BUILTIN_VARIANTS, create_backend, register_variant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.dataset import FMRIDataset

__all__ = [
    "Stage",
    "StageGraph",
    "StageGraphError",
    "baseline_graph",
    "optimized_graph",
    "build_graph",
    "execute_task",
    "name_windows_body",
    "score",
    "score_panel",
    "walk",
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
    name_windows_body(ctx, ds)
    return {"grouped": ds, "windows": z}


def name_windows_body(ctx: RunContext, grouped: "FMRIDataset") -> None:
    """Tag the open ``preprocess`` stage span with ``body``: which
    equation-2 normalizer (``native`` / ``numpy``) made the windows.
    The serial graph's node and a tiled worker rank's start call it."""
    span = ctx.tracer.current()
    if span is not None:
        span.attrs["body"] = windows_body(grouped.epoch_length)


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


@contextmanager
def _item_span(ctx: RunContext, rows: NDArray[Any]) -> Iterator[None]:
    """The ``task`` span of one work item.  :func:`execute_task` opens
    it around the graph; a tile or score item of the tiled runtime calls
    :func:`walk` / :func:`score` bare, and gets its own here."""
    if "task" in ctx.tracer.open_kinds():
        yield
        return
    with ctx.task_span(rows.size, int(rows[0])) as span:
        yield
        span.add_metric("voxels", float(rows.size))


def walk(
    ctx: RunContext,
    z: NDArray[Any],
    rows: NDArray[Any],
    epochs_per_subject: int,
    col_start: int = 0,
    col_stop: int | None = None,
    workspace: NormalizationWorkspace | None = None,
) -> NDArray[np.float32]:
    """Stages 1 → 2 → 3a of ``rows`` over columns ``[col_start,
    col_stop)``: the first half of a task, and a ``"tile"`` work item.

    Returns float32 ``(n_chunks, rows, E, E)`` — one partial Gram per
    chunk of the Gram rule inside the range, ascending;
    :func:`~repro.core.kernels.sum_gram_partials` over every chunk of
    the row is the ``(rows, E, E)`` hand-off to :func:`score`, whether
    one walk produced them or many.  ``sparse-batched`` walks the full
    width through ``CSREmitter`` and Grams the CSR per voxel — one
    chunk.  One kernel span per emitter, around the engine.
    """
    config = ctx.config
    n_epochs, n_voxels = z.shape[0], z.shape[1]
    input_copies = stage1_input_copies(z)
    kind = config.resolved_emitter() or "dense"
    sparse = kind == "csr"
    emitter: Any = (
        # Its own default plan (`sparse_tile_plan`) sizes the tiles.
        CSREmitter(threshold=config.threshold, top_k=config.top_k)
        if sparse
        else GramEmitter(col_start, col_stop)
    )
    name = "correlate_normalize_sparse" if sparse else "correlate_normalize_batched"
    with _item_span(ctx, rows):
        # ``body``: which fused normalizer ran (``native`` / ``numpy``).
        attrs = {"body": normalizer_body()}
        with ctx.tracer.span(name, kind="kernel", attrs=attrs) as span:
            result = run_engine(
                z, rows, epochs_per_subject, emitter, workspace=workspace
            )
            if sparse:
                csr, stats = result
                n_tiles, tile_rows = stats.n_tiles, emitter.tile_rows
                gemm_cols = emitter.tile_cols
                counters = {
                    "tiles_pruned": stats.tiles_pruned,
                    "nnz": stats.nnz,
                    "elements": stats.elements,
                }
                metrics: dict[str, float] = {
                    "tiles": n_tiles,
                    "voxels": rows.size,
                    **counters,
                    "density": stats.density,
                    "voxel_sweep": tile_rows,
                    "target_block": emitter.tile_cols,
                    "bytes_moved": z.nbytes
                    + csr.data.nbytes
                    + csr.indices.nbytes
                    + csr.indptr.nbytes,
                }
            else:
                partials = result
                n_tiles, tile_rows = len(partials), rows.size
                gemm_cols = emitter.gemm_cols
                counters = {}
                cols = emitter.chunks[-1][1] - emitter.chunks[0][0]
                metrics = {
                    "rows": rows.size,
                    "cols": cols,
                    "tiles": n_tiles,
                    # Read the range's z columns, computed (never
                    # stored) its normalized (rows, E, cols) block.
                    "bytes_moved": cols
                    * (z.nbytes // n_voxels + rows.size * n_epochs * 4),
                    "gram_chunks": n_tiles,
                    "bytes_out": partials.nbytes,
                }
            for metric, value in metrics.items():
                span.add_metric(metric, float(value))
        if sparse:
            # Stage 3a of the CSR, per voxel: in the walk, but outside
            # the span, whose model (`model_sparse_stage12`) has no Gram.
            partials = kernel_matrix_batched(csr)[None]
        # The tile the engine walked (``fcma run --json``): its rows,
        # width (a Gram chunk, or the sparse tile), every epoch, the
        # column block its gemm was issued in, the thread budget.
        ctx.metadata["blocking_plan"] = {
            "voxel_block": tile_rows,
            "target_block": gemm_cols,
            "epoch_block": n_epochs,
            "tile_cols": emitter.tile_cols,
            "engine_threads": thread_budget(),
        }
        ctx.metadata["emitter"] = kind
        ctx.increment(f"emitter_{kind}_runs", 1)
        ctx.increment("stage12_tiles", n_tiles)
        ctx.increment(f"emitter_{kind}_tiles", n_tiles)
        for counter, value in counters.items():
            ctx.increment(f"stage12_{counter}", value)
        if input_copies:
            ctx.increment("stage12_out_copies", input_copies)
    return partials


def _walk_node(ctx: RunContext, state: Mapping[str, Any]) -> Mapping[str, Any]:
    partials = walk(
        ctx,
        state["windows"],
        state["assigned"],
        state["grouped"].epochs.epochs_per_subject(),
    )
    return {"kernels": sum_gram_partials(partials)}


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


def score(
    ctx: RunContext,
    grouped: "FMRIDataset",
    rows: NDArray[Any],
    kernels: NDArray[Any] | None = None,
    *,
    correlations: NDArray[Any] | None = None,
) -> VoxelScores:
    """Stage 3b of ``rows``' ``(rows, E, E)`` kernels: the second half
    of a task, and a ``"score"`` work item — one ``score_voxels`` kernel
    span whoever calls.  ``correlations`` is the oracle's door: the
    ``baseline`` graph hands over its materialized ``(rows, E, N)``
    block and it is Gram-ed here, inside the span."""
    with _item_span(ctx, rows), ctx.tracer.span("score_voxels", kind="kernel") as span:
        if kernels is None:
            kernels = kernel_matrix_batched(correlations)
        scores = score_kernels(kernels, rows, *_stage3_inputs(grouped, ctx.config))
        span.add_metric("voxels", float(rows.size))
    return scores


def _score_node(ctx: RunContext, state: Mapping[str, Any]) -> Mapping[str, Any]:
    scores = score(
        ctx,
        state["grouped"],
        state["assigned"],
        state.get("kernels"),
        correlations=state.get("correlations"),
    )
    return {"scores": scores}


def score_panel(
    grouped: "FMRIDataset",
    config: Any,
    rows: NDArray[Any],
    correlations: NDArray[Any],
    ctx: RunContext,
) -> VoxelScores:
    """Stage 3 of one materialized row panel ``(rows, epochs, n_voxels)``
    — the Gram rule (:mod:`repro.core.kernels`), then the
    cross-validation :func:`score` runs — in the signature the benchmark
    harness calls; no run path does.  ``ctx`` is not read.
    """
    return score_voxels(correlations, rows, *_stage3_inputs(grouped, config))


_SEEDS = ("dataset", "assigned")
_PREPROCESS = Stage("preprocess", _preprocess, ("dataset",), ("grouped", "windows"))


def baseline_graph(config: Any = None) -> StageGraph:
    """The Section-3.2 pipeline: three separated stages."""
    return StageGraph(
        stages=(
            _PREPROCESS,
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
                _score_node,
                ("correlations", "assigned", "grouped"),
                ("scores",),
            ),
        ),
        seeds=_SEEDS,
    )


def optimized_graph(config: Any = None) -> StageGraph:
    """The Section-4 pipeline, task = walk ∘ score: the tiled engine
    with normalization merged into correlation and the walk ending in a
    Gram (:func:`walk` — dense chunks, or for ``sparse-batched`` each
    normalized tile filtered to CSR by ``config.threshold`` /
    ``config.top_k`` while cache-resident), then batched scoring."""
    return StageGraph(
        stages=(
            _PREPROCESS,
            Stage(
                "correlate+normalize",
                _walk_node,
                ("windows", "assigned", "grouped"),
                ("kernels",),
            ),
            Stage(
                "score",
                _score_node,
                ("kernels", "assigned", "grouped"),
                ("scores",),
            ),
        ),
        seeds=_SEEDS,
    )


for _name in BUILTIN_VARIANTS:
    # One oracle; every other built-in is walk ∘ score, and nothing but
    # :func:`walk`'s emitter choice branches on which name a config used.
    register_variant(
        _name,
        baseline_graph if _name == "baseline" else optimized_graph,
        overwrite=True,
    )


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
    with _item_span(ctx, assigned):
        state = graph.run(ctx, dataset=dataset, assigned=assigned)
    scores = state["scores"]
    assert isinstance(scores, VoxelScores)
    return scores
