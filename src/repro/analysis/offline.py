"""Offline analysis: nested leave-one-subject-out n-fold CV (Section 5.2.1).

"In each fold of the outer loop cross validation, a training set
consisting of n-1 subjects was used for voxel selection by conducting
another level of leave-one-subject-out cross validation.  After voxel
selection in each fold, a final classifier can be trained using the
correlation patterns of the selected voxels to test on the left out
subject."

This module reproduces that procedure end to end on real data: the
inner level is the three-stage FCMA pipeline (voxel scores via LOSO CV
within the training subjects); the outer level trains a final linear SVM
on the selected voxels' correlation patterns and reports generalization
to the held-out subject.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.correlation import correlate_baseline, epoch_windows
from ..core.normalization import normalize_separated
from ..core.pipeline import FCMAConfig
from ..core.results import VoxelScores
from ..data.dataset import FMRIDataset
from ..exec.context import RunContext
from ..exec.executors import Executor, SerialExecutor
from ..exec.registry import create_backend
from ..svm.kernels import linear_kernel

__all__ = ["FoldResult", "OfflineResult", "run_offline_analysis", "selected_voxel_features"]


@dataclass(frozen=True)
class FoldResult:
    """Outcome of one outer fold."""

    held_out_subject: int
    #: Scores of the selected (top-k) voxels on the training subjects.
    selected: VoxelScores
    #: Final classifier accuracy on the held-out subject's epochs.
    test_accuracy: float


@dataclass(frozen=True)
class OfflineResult:
    """Outcome of the full nested cross-validation."""

    folds: tuple[FoldResult, ...]
    top_k: int

    @property
    def mean_test_accuracy(self) -> float:
        """Mean held-out accuracy over outer folds."""
        return float(np.mean([f.test_accuracy for f in self.folds]))

    def selection_counts(self, n_voxels: int) -> np.ndarray:
        """How many folds selected each voxel (reliability map).

        "The selected voxels across different folds can be statistically
        compared to identify the reliable voxels."
        """
        counts = np.zeros(n_voxels, dtype=np.int64)
        for fold in self.folds:
            counts[fold.selected.voxels] += 1
        return counts

    def reliable_voxels(self, n_voxels: int, min_folds: int) -> np.ndarray:
        """Voxels selected in at least ``min_folds`` outer folds."""
        if min_folds < 1:
            raise ValueError("min_folds must be >= 1")
        counts = self.selection_counts(n_voxels)
        return np.nonzero(counts >= min_folds)[0]


def selected_voxel_features(
    dataset: FMRIDataset, voxels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-epoch correlation-pattern features for the selected voxels.

    Returns ``(features, labels, subjects)`` where ``features[m]`` is the
    flattened, normalized correlation block of the selected voxels with
    the whole brain in epoch ``m`` — "the correlation patterns of the
    selected voxels".
    """
    voxels = np.asarray(voxels, dtype=np.int64)
    if voxels.ndim != 1 or voxels.size == 0:
        raise ValueError("voxels must be a non-empty 1D index array")
    ds = dataset.grouped_by_subject()
    z = epoch_windows(ds)
    corr = correlate_baseline(z, voxels)  # (k, M, N)
    normalize_separated(corr, ds.epochs.epochs_per_subject())
    features = np.ascontiguousarray(corr.transpose(1, 0, 2)).reshape(
        corr.shape[1], -1
    )
    return features, ds.epochs.labels(), ds.epochs.subjects()


def run_offline_analysis(
    dataset: FMRIDataset,
    config: FCMAConfig = FCMAConfig(),
    top_k: int = 20,
    executor: Executor | None = None,
    context: RunContext | None = None,
) -> OfflineResult:
    """Run the full nested leave-one-subject-out analysis.

    ``executor`` runs the voxel selection (serial by default; any
    :class:`~repro.exec.Executor` works, master-worker included).
    Per-stage wall time accumulates into ``context`` (pass your own,
    built on ``config``, to read it back; the final per-fold classifier
    is charged to ``final-classifier``).
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if dataset.n_subjects < 3:
        raise ValueError(
            "nested LOSO needs >= 3 subjects (2 for the inner CV after "
            "holding one out)"
        )
    ctx = context if context is not None else RunContext(config)
    exe = executor if executor is not None else SerialExecutor()
    folds = []
    for held_out in dataset.subject_ids():
        training = dataset.subset_subjects(
            [s for s in dataset.subject_ids() if s != held_out]
        )
        selected = exe.run(training, ctx).top(top_k)

        # Final classifier: correlation patterns of the selected voxels,
        # trained on the training subjects, tested on the held-out one.
        with ctx.timer("final-classifier"):
            features, labels, subjects = selected_voxel_features(
                dataset, selected.voxels
            )
            train_mask = subjects != held_out
            test_mask = ~train_mask
            backend = create_backend(config)
            x_train = features[train_mask]
            kernel = linear_kernel(x_train)
            model = backend.fit_kernel(kernel, labels[train_mask])
            test_block = linear_kernel(features[test_mask], x_train)
            accuracy = model.accuracy(test_block, labels[test_mask])
        folds.append(
            FoldResult(
                held_out_subject=held_out,
                selected=selected,
                test_accuracy=accuracy,
            )
        )
    return OfflineResult(folds=tuple(folds), top_k=top_k)
