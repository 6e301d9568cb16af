"""One FCMA task, stage by stage: task = walk ∘ score.

The paper's three-stage pipeline — correlate (Section 3.1 stage 1),
normalize (stage 2), SVM-score (stage 3) — runs as a fixed sequence of
named stages, each under ``ctx.timer(<name>)``, so every executor emits
identical per-stage telemetry.  :func:`execute_task` runs one row task
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

``FCMAConfig.variant`` picks the stages: ``baseline`` — the oracle:
``preprocess`` → ``correlate`` (per-epoch gemm) → ``normalize``
(separated) → ``score`` (LibSVM-style) over a materialized ``(V, E, N)``
block, Gram-ed inside its ``score`` stage — or, for every other name,
``preprocess`` → ``correlate+normalize`` (:func:`walk`) → ``score``:
``optimized`` (the paper's Section 4), its accepted spelling
``optimized-batched``, and ``sparse-batched``, for which :func:`walk`
filters each tile to CSR while it is resident (``core.sparse.CSREmitter``)
and ends in the sparse Gram, so no CSR result crosses a stage boundary.

``baseline`` and ``optimized`` select the same voxels with the same
accuracies; the equivalence is pinned by ``tests/exec`` and
``tests/integration``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

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
from .registry import create_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.dataset import FMRIDataset

__all__ = [
    "execute_task",
    "name_windows_body",
    "score",
    "score_panel",
    "walk",
]

# -- the FCMA stage bodies ------------------------------------------------


def _preprocess(
    ctx: RunContext, dataset: "FMRIDataset"
) -> tuple["FMRIDataset", NDArray[Any]]:
    from ..core.pipeline import preprocess_dataset

    with ctx.timer("preprocess"):
        grouped, z = preprocess_dataset(dataset)
        name_windows_body(ctx, grouped)
    return grouped, z


def name_windows_body(ctx: RunContext, grouped: "FMRIDataset") -> None:
    """Tag the open ``preprocess`` stage span with ``body``: which
    equation-2 normalizer (``native`` / ``numpy``) made the windows.
    A task's ``preprocess`` stage and a tiled worker rank's start call
    it."""
    span = ctx.tracer.current()
    if span is not None:
        span.attrs["body"] = windows_body(grouped.epoch_length)


@contextmanager
def _item_span(ctx: RunContext, rows: NDArray[Any]) -> Iterator[None]:
    """The ``task`` span of one work item.  :func:`execute_task` opens
    it around the task's stages; a tile or score item of the tiled runtime calls
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
    ``baseline`` pipeline hands over its materialized ``(rows, E, N)``
    block and it is Gram-ed here, inside the span."""
    with _item_span(ctx, rows), ctx.tracer.span("score_voxels", kind="kernel") as span:
        if kernels is None:
            kernels = kernel_matrix_batched(correlations)
        scores = score_kernels(kernels, rows, *_stage3_inputs(grouped, ctx.config))
        span.add_metric("voxels", float(rows.size))
    return scores


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


def _baseline_task(
    ctx: RunContext, grouped: "FMRIDataset", z: NDArray[Any], assigned: NDArray[Any]
) -> VoxelScores:
    """The Section-3.2 pipeline: three separated stages."""
    with ctx.timer("correlate"):
        with ctx.tracer.span("correlate_baseline", kind="kernel") as span:
            corr = correlate_baseline(z, assigned)
            span.add_metric("voxels", float(assigned.size))
            span.add_metric("bytes_moved", float(z.nbytes + corr.nbytes))
    with ctx.timer("normalize"):
        with ctx.tracer.span("normalize_separated", kind="kernel") as span:
            normalize_separated(corr, grouped.epochs.epochs_per_subject())
            span.add_metric("bytes_moved", float(2 * corr.nbytes))
    with ctx.timer("score"):
        scores = score(ctx, grouped, assigned, correlations=corr)
    return scores


def _walk_score_task(
    ctx: RunContext, grouped: "FMRIDataset", z: NDArray[Any], assigned: NDArray[Any]
) -> VoxelScores:
    """The Section-4 pipeline, task = walk ∘ score: the tiled engine
    with normalization merged into correlation and the walk ending in a
    Gram (:func:`walk` — dense chunks, or for ``sparse-batched`` each
    normalized tile filtered to CSR while cache-resident), then batched
    scoring."""
    with ctx.timer("correlate+normalize"):
        eps = grouped.epochs.epochs_per_subject()
        kernels = sum_gram_partials(walk(ctx, z, assigned, eps))
    with ctx.timer("score"):
        scores = score(ctx, grouped, assigned, kernels)
    return scores


def execute_task(
    dataset: "FMRIDataset",
    assigned: NDArray[Any],
    ctx: RunContext,
) -> VoxelScores:
    """Run one task's assigned voxels through the configured variant.

    The single implementation behind every executor; the task runs
    inside a ``task`` span (so per-stage wall time lands in ``ctx`` and
    the task's total appears in ``ctx.task_seconds``, both derived from
    the trace).
    """
    assigned = np.asarray(assigned, dtype=np.int64)
    if assigned.ndim != 1 or assigned.size == 0:
        raise ValueError("assigned must be a non-empty 1D index array")
    # One oracle; every other variant is walk ∘ score, and nothing but
    # :func:`walk`'s emitter choice branches on which name a config used.
    task = _baseline_task if ctx.config.variant == "baseline" else _walk_score_task
    with _item_span(ctx, assigned):
        grouped, z = _preprocess(ctx, dataset)
        scores = task(ctx, grouped, z, assigned)
    return scores
