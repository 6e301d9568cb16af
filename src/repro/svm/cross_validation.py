"""Cross-validation over precomputed kernel matrices.

FCMA scores each voxel by "leave one subject out at a time"
cross-validation (Section 3.1): for each fold, the SVM trains on the
kernel submatrix of the remaining subjects' epochs and is tested on the
held-out subject's rows.  Because the full M x M kernel is precomputed,
both the training submatrix and the test-versus-train block are simple
slices — no kernel recomputation per fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

if TYPE_CHECKING:
    from ..data.epochs import EpochTable

__all__ = [
    "KernelBackend",
    "BatchKernelBackend",
    "CrossValidationResult",
    "BatchCrossValidationResult",
    "grouped_cross_validation",
    "grouped_cross_validation_batch",
    "loso_cross_validation",
    "kfold_ids",
    "cv_fold_ids",
]


class KernelBackend(Protocol):
    """Any SVM backend trainable from a precomputed kernel."""

    def fit_kernel(self, kernel: np.ndarray, labels: np.ndarray): ...


class BatchKernelBackend(Protocol):
    """An SVM backend that can train many stacked kernels jointly."""

    def fit_kernel_batch(self, kernels: np.ndarray, labels: np.ndarray): ...


@dataclass(frozen=True)
class CrossValidationResult:
    """Per-fold outcomes of one grouped cross-validation."""

    #: Distinct fold ids in evaluation order.
    folds: np.ndarray
    #: Held-out accuracy per fold.
    fold_accuracies: np.ndarray
    #: Held-out sample count per fold.
    fold_sizes: np.ndarray
    #: Solver iterations per fold (load indicator for the perf models).
    fold_iterations: np.ndarray

    @property
    def accuracy(self) -> float:
        """Sample-weighted mean held-out accuracy."""
        total = self.fold_sizes.sum()
        if total == 0:
            return 0.0
        return float((self.fold_accuracies * self.fold_sizes).sum() / total)

    @property
    def total_iterations(self) -> int:
        """Total SMO iterations across folds."""
        return int(self.fold_iterations.sum())


def grouped_cross_validation(
    backend: KernelBackend,
    kernel: np.ndarray,
    labels: np.ndarray,
    fold_ids: np.ndarray,
) -> CrossValidationResult:
    """Grouped CV: one fold per distinct value of ``fold_ids``.

    Skips degenerate folds whose *training* set would contain fewer than
    two classes (cannot train an SVM) — such folds get accuracy 0, which
    penalizes rather than silently inflates the voxel's score.
    """
    kernel = np.asarray(kernel)
    labels = np.asarray(labels)
    fold_ids = np.asarray(fold_ids)
    n = kernel.shape[0]
    if kernel.ndim != 2 or kernel.shape[1] != n:
        raise ValueError(f"kernel must be square, got {kernel.shape}")
    if labels.shape != (n,) or fold_ids.shape != (n,):
        raise ValueError("labels and fold_ids must match the kernel size")
    folds = np.unique(fold_ids)
    if folds.size < 2:
        raise ValueError("grouped CV needs at least 2 folds")

    accuracies = np.zeros(folds.size)
    sizes = np.zeros(folds.size, dtype=np.int64)
    iterations = np.zeros(folds.size, dtype=np.int64)
    for k, fold in enumerate(folds):
        test_mask = fold_ids == fold
        train_mask = ~test_mask
        train_idx = np.nonzero(train_mask)[0]
        test_idx = np.nonzero(test_mask)[0]
        sizes[k] = test_idx.size
        train_labels = labels[train_idx]
        if np.unique(train_labels).size < 2:
            accuracies[k] = 0.0
            continue
        sub_kernel = kernel[np.ix_(train_idx, train_idx)]
        model = backend.fit_kernel(sub_kernel, train_labels)
        test_block = kernel[np.ix_(test_idx, train_idx)]
        accuracies[k] = model.accuracy(test_block, labels[test_idx])
        iterations[k] = model.iterations
    return CrossValidationResult(
        folds=folds,
        fold_accuracies=accuracies,
        fold_sizes=sizes,
        fold_iterations=iterations,
    )


@dataclass(frozen=True)
class BatchCrossValidationResult:
    """Per-fold outcomes of one grouped CV over ``B`` stacked problems."""

    #: Distinct fold ids in evaluation order, shape (F,).
    folds: np.ndarray
    #: Held-out accuracy per problem and fold, shape (B, F).
    fold_accuracies: np.ndarray
    #: Held-out sample count per fold (shared by all problems), shape (F,).
    fold_sizes: np.ndarray
    #: Solver iterations per problem and fold, shape (B, F).
    fold_iterations: np.ndarray

    @property
    def accuracies(self) -> np.ndarray:
        """Sample-weighted mean held-out accuracy per problem, shape (B,)."""
        total = self.fold_sizes.sum()
        if total == 0:
            return np.zeros(self.fold_accuracies.shape[0])
        return (self.fold_accuracies * self.fold_sizes[None, :]).sum(
            axis=1
        ) / total

    @property
    def total_iterations(self) -> np.ndarray:
        """Total SMO iterations per problem across folds, shape (B,)."""
        return self.fold_iterations.sum(axis=1)

    def problem(self, b: int) -> CrossValidationResult:
        """Problem ``b``'s folds as a scalar :class:`CrossValidationResult`."""
        return CrossValidationResult(
            folds=self.folds,
            fold_accuracies=self.fold_accuracies[b],
            fold_sizes=self.fold_sizes,
            fold_iterations=self.fold_iterations[b],
        )


def _gather_blocks(
    kernels: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """``kernels[:, rows[g]][:, :, cols[g]]`` for each fold ``g``, as one
    C-contiguous ``(B, G, len(rows[g]), len(cols[g]))`` stack: two axis
    takes per fold, each written into its place.  One 4-D fancy index
    gives the same array in about 2.5x the time."""
    out = np.empty(
        (kernels.shape[0], rows.shape[0], rows.shape[1], cols.shape[1]),
        dtype=kernels.dtype,
    )
    for g in range(rows.shape[0]):
        out[:, g] = kernels.take(rows[g], axis=1).take(cols[g], axis=2)
    return out


def grouped_cross_validation_batch(
    backend: BatchKernelBackend,
    kernels: np.ndarray,
    labels: np.ndarray,
    fold_ids: np.ndarray,
) -> BatchCrossValidationResult:
    """Grouped CV over ``B`` stacked kernel matrices at once.

    The batched counterpart of :func:`grouped_cross_validation` for the
    FCMA stage-3 situation: every problem (voxel) shares the epochs, so
    the fold partition is common and each fold's training kernels are
    pure stacked submatrix slices ``kernels[:, train, train]``.  All
    ``F`` folds train in **one** ``fit_kernel_batch`` call over a
    ``(B * F, n_train, n_train)`` stack with per-problem labels (voxel
    major, fold minor), one solver call per batch instead of one per
    fold.  Folds of unequal training size cannot share a stack; they
    are grouped by size, one call per distinct size in ascending order,
    never padded.  Each group's training stack is one C-contiguous copy
    of ``B * G * n_train**2`` kernel entries for its ``G`` folds (its
    test blocks, ``B * G * n_test * n_train``, are gathered after the
    fit has let it go).  Fold semantics are identical
    to the sequential driver, including the degenerate-training-fold
    rule (accuracy 0 for every problem).
    """
    kernels = np.asarray(kernels)
    labels = np.asarray(labels)
    fold_ids = np.asarray(fold_ids)
    if kernels.ndim != 3 or kernels.shape[1] != kernels.shape[2]:
        raise ValueError(
            f"kernels must be (problems, n, n), got {kernels.shape}"
        )
    b, n = kernels.shape[0], kernels.shape[1]
    if labels.shape != (n,) or fold_ids.shape != (n,):
        raise ValueError("labels and fold_ids must match the kernel size")
    folds = np.unique(fold_ids)
    if folds.size < 2:
        raise ValueError("grouped CV needs at least 2 folds")

    accuracies = np.zeros((b, folds.size))
    sizes = np.zeros(folds.size, dtype=np.int64)
    iterations = np.zeros((b, folds.size), dtype=np.int64)
    trainable: dict[int, list[int]] = {}  # n_train -> fold positions
    for k, fold in enumerate(folds):
        test_mask = fold_ids == fold
        sizes[k] = np.count_nonzero(test_mask)
        if np.unique(labels[~test_mask]).size >= 2:
            trainable.setdefault(n - int(sizes[k]), []).append(k)
    for n_train in sorted(trainable):
        ks = trainable[n_train]
        train_idx = np.stack([np.nonzero(fold_ids != folds[k])[0] for k in ks])
        test_idx = np.stack([np.nonzero(fold_ids == folds[k])[0] for k in ks])
        # (B, G, ., n_train) stacks, G problems per voxel; the reshapes
        # are views.  The training stack is an argument temporary: it is
        # gone before the test blocks are gathered.
        models = backend.fit_kernel_batch(
            _gather_blocks(kernels, train_idx, train_idx).reshape(
                -1, n_train, n_train
            ),
            np.tile(labels[train_idx], (b, 1)),
        )
        test_blocks = _gather_blocks(kernels, test_idx, train_idx)
        fold_accuracies = models.accuracy(
            test_blocks.reshape(-1, n - n_train, n_train),
            np.tile(labels[test_idx], (b, 1)),
        )
        accuracies[:, ks] = fold_accuracies.reshape(b, len(ks))
        iterations[:, ks] = models.iterations.reshape(b, len(ks))
    return BatchCrossValidationResult(
        folds=folds,
        fold_accuracies=accuracies,
        fold_sizes=sizes,
        fold_iterations=iterations,
    )


def loso_cross_validation(
    backend: KernelBackend,
    kernel: np.ndarray,
    labels: np.ndarray,
    subjects: np.ndarray,
) -> CrossValidationResult:
    """Leave-one-subject-out CV: folds are the subject ids.

    This is the paper's voxel-scoring procedure verbatim; it is a named
    alias of :func:`grouped_cross_validation` to keep call sites
    self-documenting.
    """
    return grouped_cross_validation(backend, kernel, labels, subjects)


def kfold_ids(n_samples: int, n_folds: int) -> np.ndarray:
    """Contiguous k-fold assignment for single-subject (online) CV.

    Online analysis has only one subject, so LOSO is unavailable; the
    paper's online mode cross-validates within the subject's epochs.
    Contiguous blocks (not interleaved) keep temporally adjacent epochs
    in the same fold, reducing leakage between train and test.
    """
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    if n_folds > n_samples:
        raise ValueError(
            f"n_folds {n_folds} exceeds n_samples {n_samples}"
        )
    return (np.arange(n_samples) * n_folds) // n_samples


def cv_fold_ids(epochs: EpochTable, online_folds: int) -> np.ndarray:
    """The pipeline's one fold rule: LOSO across subjects, k-fold within one.

    With two or more subjects the folds are the subject ids (the paper's
    offline analysis); a single subject falls back to ``online_folds``
    contiguous folds over its epochs (:func:`kfold_ids`).
    """
    if epochs.n_subjects >= 2:
        return np.asarray(epochs.subjects())
    return kfold_ids(len(epochs), online_folds)
