"""Tests for voxel scoring."""

import numpy as np
import pytest

from repro.core.kernels import kernel_matrix_batched
from repro.core.voxel_selection import (
    score_kernels,
    score_voxels,
    score_voxels_reference,
)
from repro.svm import LibSVMClassifier, PhiSVM
from repro.svm.multiclass import as_multiclass


def correlations(v=3, m=24, n=30, seed=0, informative_first=True):
    """Synthetic normalized correlation tensors; voxel 0 carries signal."""
    rng = np.random.default_rng(seed)
    corr = rng.standard_normal((v, m, n)).astype(np.float32)
    labels = np.tile([0, 1], m // 2)
    if informative_first:
        # voxel 0's correlation pattern separates the conditions
        corr[0, labels == 1, :10] += 2.0
    folds = np.repeat(np.arange(4), m // 4)
    return corr, labels, folds


class TestScoreVoxels:
    def test_shapes_and_range(self):
        corr, labels, folds = correlations()
        ids = np.array([10, 20, 30])
        scores = score_voxels(corr, ids, labels, folds, PhiSVM())
        np.testing.assert_array_equal(scores.voxels, ids)
        assert ((scores.accuracies >= 0) & (scores.accuracies <= 1)).all()

    def test_informative_voxel_wins(self):
        corr, labels, folds = correlations()
        scores = score_voxels(corr, np.arange(3), labels, folds, PhiSVM())
        assert scores.accuracies[0] > scores.accuracies[1:].max()
        assert scores.accuracies[0] > 0.85

    def test_kernel_fn_equivalence(self):
        """The stacked Gram of the batched path and the per-voxel
        baseline Gram of the fallback score identically."""
        corr, labels, folds = correlations(seed=1)
        svm = PhiSVM(tol=1e-4)
        a = score_voxels(corr, np.arange(3), labels, folds, svm)
        b = score_voxels_reference(corr, np.arange(3), labels, folds, svm)
        np.testing.assert_array_equal(a.accuracies, b.accuracies)

    def test_validation(self):
        corr, labels, folds = correlations()
        with pytest.raises(ValueError, match=r"\(V, M, N\)"):
            score_voxels(corr[0], np.arange(3), labels, folds, PhiSVM())
        with pytest.raises(ValueError, match="voxel_ids"):
            score_voxels(corr, np.arange(2), labels, folds, PhiSVM())
        with pytest.raises(ValueError, match="per epoch"):
            score_voxels(corr, np.arange(3), labels[:-1], folds[:-1], PhiSVM())


class TestScoreKernels:
    """The second half of ``score_voxels``: what a tiled ``"score"``
    item runs on kernels its tiles Gram-ed elsewhere."""

    @pytest.mark.parametrize("batch_voxels", [64, 2, 1])
    def test_gram_then_score_kernels_is_score_voxels(self, batch_voxels):
        corr, labels, folds = correlations(v=5, seed=2)
        ids = np.arange(5)
        whole = score_voxels(
            corr, ids, labels, folds, PhiSVM(), batch_voxels=batch_voxels
        )
        halves = score_kernels(
            kernel_matrix_batched(corr), ids, labels, folds, PhiSVM(),
            batch_voxels=batch_voxels,
        )
        np.testing.assert_array_equal(whole.voxels, halves.voxels)
        np.testing.assert_array_equal(whole.accuracies, halves.accuracies)

    def test_validation(self):
        corr, labels, folds = correlations()
        kernels = kernel_matrix_batched(corr)
        with pytest.raises(ValueError, match=r"\(V, M, M\)"):
            score_kernels(kernels[:2], np.arange(3), labels, folds, PhiSVM())
        with pytest.raises(ValueError, match=r"\(V, M, M\)"):
            score_kernels(corr, np.arange(3), labels, folds, PhiSVM())
        with pytest.raises(ValueError, match="per epoch"):
            score_kernels(kernels, np.arange(3), labels, folds[:-1], PhiSVM())
        with pytest.raises(ValueError, match="batch_voxels"):
            score_kernels(
                kernels, np.arange(3), labels, folds, PhiSVM(), batch_voxels=0
            )


class TestBatchedPath:
    def test_batched_matches_reference(self):
        """The default (batched) path must reproduce the per-voxel
        reference within float32 tolerance — the solver trajectories are
        bitwise-equal, so in practice the accuracies are identical."""
        corr, labels, folds = correlations(v=7, seed=2)
        svm = PhiSVM(tol=1e-4)
        batched = score_voxels(
            corr, np.arange(7), labels, folds, svm, batch_voxels=3
        )
        reference = score_voxels_reference(
            corr, np.arange(7), labels, folds, svm
        )
        np.testing.assert_allclose(
            batched.accuracies, reference.accuracies, atol=1e-6
        )

    def test_one_voxel_blocks_match_reference(self):
        corr, labels, folds = correlations(seed=3)
        svm = PhiSVM(tol=1e-4)
        narrow = score_voxels(
            corr, np.arange(3), labels, folds, svm, batch_voxels=1
        )
        ref = score_voxels_reference(corr, np.arange(3), labels, folds, svm)
        np.testing.assert_array_equal(narrow.accuracies, ref.accuracies)

    def test_backend_without_batch_trainer_falls_back(self):
        """The LibSVM-like baseline has no batched trainer, even behind
        the one-vs-one wrapper that always advertises one."""
        corr, labels, folds = correlations(v=2, seed=4)
        backend = as_multiclass(LibSVMClassifier(tol=1e-3))
        scores = score_voxels(corr, np.arange(2), labels, folds, backend)
        ref = score_voxels_reference(
            corr, np.arange(2), labels, folds, backend
        )
        np.testing.assert_array_equal(scores.accuracies, ref.accuracies)

    def test_multiclass_labels_fall_back(self):
        corr, labels, folds = correlations(seed=5)
        labels3 = labels.copy()
        labels3[::3] = 2
        backend = as_multiclass(PhiSVM(tol=1e-3))
        scores = score_voxels(corr, np.arange(3), labels3, folds, backend)
        ref = score_voxels_reference(
            corr, np.arange(3), labels3, folds, backend
        )
        np.testing.assert_array_equal(scores.accuracies, ref.accuracies)

    def test_uneven_last_batch(self):
        corr, labels, folds = correlations(v=5, seed=6)
        svm = PhiSVM(tol=1e-4)
        batched = score_voxels(
            corr, np.arange(5), labels, folds, svm, batch_voxels=2
        )
        ref = score_voxels_reference(corr, np.arange(5), labels, folds, svm)
        np.testing.assert_allclose(
            batched.accuracies, ref.accuracies, atol=1e-6
        )
