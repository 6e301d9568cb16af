"""FCMA stage 3: voxel-wise SVM cross-validation (Section 3.1).

Each assigned voxel's normalized correlation vectors form an ``(M, N)``
data matrix (M epochs, N brain voxels).  The voxel's score is the
cross-validated accuracy of a linear SVM classifying those vectors by
epoch condition — computed over the precomputed linear kernel so the CV
folds are pure submatrix slices.

Two drivers are provided.  :func:`score_voxels` (the default path) is
two halves: all kernels from one stacked GEMM, then :func:`score_kernels`
works **batch-at-a-time** — blocks of ``batch_voxels`` voxels are
cross-validated by one multi-problem SMO call, whose problems (voxels x
folds) are dealt to the engine's threads, one compiled solve each —
the paper's PhiSVM, where "a thread takes full responsibility for the
cross validation of one voxel" (§4.4).
:func:`score_voxels_reference` is the one-voxel-at-a-time loop kept as
the reference implementation; the batched path reproduces its
trajectories exactly (see the solver equivalence tests).
"""

from __future__ import annotations

import numpy as np

from ..obs.runtime import kernel_span
from ..svm.cross_validation import (
    KernelBackend,
    grouped_cross_validation,
    grouped_cross_validation_batch,
)
from .kernels import kernel_matrix_baseline, kernel_matrix_batched
from .results import VoxelScores
from .sparse import SparseCorrelationResult

__all__ = [
    "score_kernels",
    "score_voxels",
    "score_voxels_reference",
    "score_voxels_sparse",
    "DEFAULT_BATCH_VOXELS",
]

#: Default voxel problems per batch; mirrors the paper's observation
#: that ~2 x 120-voxel tasks stay resident on the coprocessor at once.
DEFAULT_BATCH_VOXELS = 64


def _check_inputs(
    correlations: np.ndarray,
    voxel_ids: np.ndarray,
    labels: np.ndarray,
    fold_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    correlations = np.asarray(correlations)
    if correlations.ndim != 3:
        raise ValueError(
            f"correlations must be (V, M, N), got {correlations.shape}"
        )
    voxel_ids = np.asarray(voxel_ids, dtype=np.int64)
    v, m, _ = correlations.shape
    if voxel_ids.shape != (v,):
        raise ValueError(f"voxel_ids must have shape ({v},)")
    labels = np.asarray(labels)
    fold_ids = np.asarray(fold_ids)
    if labels.shape != (m,) or fold_ids.shape != (m,):
        raise ValueError("labels and fold_ids must have one entry per epoch")
    return correlations, voxel_ids, labels, fold_ids


def score_voxels_reference(
    correlations: np.ndarray,
    voxel_ids: np.ndarray,
    labels: np.ndarray,
    fold_ids: np.ndarray,
    backend: KernelBackend,
) -> VoxelScores:
    """Reference stage 3: one baseline kernel + one sequential CV per voxel.

    Parameters
    ----------
    correlations:
        Normalized voxel-major correlations, shape ``(V, M, N)``.
    voxel_ids:
        The flat brain indices of the ``V`` assigned voxels (reported in
        the result).
    labels:
        Condition labels per epoch, shape ``(M,)``.
    fold_ids:
        CV fold assignment per epoch — subject ids for the offline LOSO
        analysis, k-fold ids for single-subject online analysis.
    backend:
        An SVM backend with ``fit_kernel`` (PhiSVM or LibSVMClassifier).
    """
    correlations, voxel_ids, labels, fold_ids = _check_inputs(
        correlations, voxel_ids, labels, fold_ids
    )
    v = correlations.shape[0]
    accuracies = np.empty(v, dtype=np.float64)
    for i in range(v):
        kernel = kernel_matrix_baseline(correlations[i])
        result = grouped_cross_validation(backend, kernel, labels, fold_ids)
        accuracies[i] = result.accuracy
    return VoxelScores(voxels=voxel_ids, accuracies=accuracies)


def score_voxels(
    correlations: np.ndarray,
    voxel_ids: np.ndarray,
    labels: np.ndarray,
    fold_ids: np.ndarray,
    backend: KernelBackend,
    batch_voxels: int = DEFAULT_BATCH_VOXELS,
) -> VoxelScores:
    """Score every assigned voxel by grouped-CV accuracy.

    The two halves of stage 3: every voxel's linear kernel
    (:func:`~repro.core.kernels.kernel_matrix_batched`, the Gram rule)
    and the cross-validation over those kernels (:func:`score_kernels`).
    The tiled runtime runs the halves in different places — workers Gram
    the column chunks of their tiles, the summed kernels are scored as
    one item — and gets these bits.

    See :func:`score_voxels_reference` for the shared parameters.
    """
    correlations, voxel_ids, labels, fold_ids = _check_inputs(
        correlations, voxel_ids, labels, fold_ids
    )
    return score_kernels(
        kernel_matrix_batched(correlations),
        voxel_ids,
        labels,
        fold_ids,
        backend,
        batch_voxels=batch_voxels,
    )


def score_kernels(
    kernels: np.ndarray,
    voxel_ids: np.ndarray,
    labels: np.ndarray,
    fold_ids: np.ndarray,
    backend: KernelBackend,
    batch_voxels: int = DEFAULT_BATCH_VOXELS,
) -> VoxelScores:
    """Stage 3b: grouped-CV accuracy of ``(V, M, M)`` precomputed kernels.

    Blocks of ``batch_voxels`` (>= 1) voxels are cross-validated at once
    through the backend's multi-problem solver (``fit_kernel_batch``);
    the width never shows in the scores.  Falls back to sequential
    per-voxel CV over the same kernels when the backend has no batched
    trainer (e.g. the LibSVM-like baseline) or when the labels are
    multiclass (one-vs-one voting is per-problem).
    """
    kernels = np.asarray(kernels)
    voxel_ids = np.asarray(voxel_ids, dtype=np.int64)
    v = voxel_ids.size
    labels = np.asarray(labels)
    fold_ids = np.asarray(fold_ids)
    m = labels.size
    if kernels.shape != (v, m, m) or voxel_ids.ndim != 1:
        raise ValueError(
            f"kernels must be (V, M, M) = ({v}, {m}, {m}), got {kernels.shape}"
        )
    if labels.shape != (m,) or fold_ids.shape != (m,):
        raise ValueError("labels and fold_ids must have one entry per epoch")
    if batch_voxels < 1:
        raise ValueError("batch_voxels must be >= 1")
    accuracies = np.empty(v, dtype=np.float64)

    def per_voxel() -> VoxelScores:
        for i in range(v):
            result = grouped_cross_validation(
                backend, kernels[i], labels, fold_ids
            )
            accuracies[i] = result.accuracy
        return VoxelScores(voxels=voxel_ids, accuracies=accuracies)

    if not hasattr(backend, "fit_kernel_batch") or np.unique(labels).size != 2:
        return per_voxel()
    for b0 in range(0, v, batch_voxels):
        b1 = min(b0 + batch_voxels, v)
        with kernel_span(
            "score_batch", attrs={"first_voxel": b0}
        ) as span:
            try:
                result = grouped_cross_validation_batch(
                    backend, kernels[b0:b1], labels, fold_ids
                )
            except NotImplementedError:
                # Backends advertising fit_kernel_batch only through a
                # wrapper (e.g. the one-vs-one shim over LibSVM) surface
                # here; score the whole task voxel by voxel instead.
                return per_voxel()
            if span is not None:
                span.add_metric("voxels", float(b1 - b0))
                span.add_metric("bytes_moved", float(kernels[b0:b1].nbytes))
        accuracies[b0:b1] = result.accuracies
    return VoxelScores(voxels=voxel_ids, accuracies=accuracies)


def score_voxels_sparse(
    sparse: SparseCorrelationResult,
    voxel_ids: np.ndarray,
    labels: np.ndarray,
    fold_ids: np.ndarray,
    backend: KernelBackend,
    batch_voxels: int = DEFAULT_BATCH_VOXELS,
) -> VoxelScores:
    """Stage 3 straight from a CSR stage-1/2 result.

    :func:`score_voxels` with the sparse Gram: per-voxel kernels from
    sparse-times-sparse-transpose row bands
    (:func:`~repro.core.kernels.csr_gram_panel`, one scipy conversion
    for the whole result) feed the *same* :func:`score_kernels` — at
    ``tau=0`` the scores equal the dense path's within float32 kernel
    tolerance.  What the ``sparse-batched`` walk and score compute
    between them.
    """
    if not isinstance(sparse, SparseCorrelationResult):
        raise TypeError(
            f"sparse must be a SparseCorrelationResult, got {type(sparse).__name__}"
        )
    return score_kernels(
        kernel_matrix_batched(sparse),
        voxel_ids,
        labels,
        fold_ids,
        backend,
        batch_voxels=batch_voxels,
    )
