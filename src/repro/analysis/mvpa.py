"""Amplitude-based MVPA: the approach FCMA is contrasted against.

The paper's premise (Section 1, citing Norman et al. and Turk-Browne)
is that conventional MVPA works on "the instantaneous amplitude of
BOLD activity" and therefore cannot see information carried purely in
*interactions* between voxels.  FCMA exists because such
correlation-coded information demonstrably exists.

This module implements the conventional approach so the contrast can be
demonstrated quantitatively: on the synthetic datasets (whose planted
structure is correlation-only by construction), amplitude MVPA must sit
at chance while FCMA classifies — the discriminating experiment behind
the whole research program, runnable in `examples/fcma_vs_mvpa.py`.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..core.results import VoxelScores
from ..data.dataset import FMRIDataset
from ..core.pipeline import FCMAConfig
from ..svm.cross_validation import KernelBackend, cv_fold_ids, grouped_cross_validation
from ..svm.kernels import linear_kernel
from ..svm.phisvm import PhiSVM

__all__ = ["amplitude_features", "score_voxels_amplitude", "pattern_accuracy"]

FeatureKind = Literal["mean", "timecourse"]


def amplitude_features(
    dataset: FMRIDataset, kind: FeatureKind = "timecourse"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-epoch amplitude features for every voxel.

    Returns ``(features, labels, fold_ids)`` where features has shape
    ``(n_epochs, n_voxels, f)`` with ``f = 1`` (epoch-mean amplitude)
    or ``f = epoch_len`` (the raw epoch time course, z-scored per epoch
    so classifiers see shape rather than scanner gain).  Folds follow
    the pipeline's rule (:func:`~repro.svm.cross_validation.cv_fold_ids`
    at the default ``FCMAConfig.online_folds``).
    """
    ds = dataset.grouped_by_subject()
    stack = ds.epoch_stack()  # (M, N, T)
    if kind == "mean":
        features = stack.mean(axis=2, keepdims=True)
    elif kind == "timecourse":
        centered = stack - stack.mean(axis=2, keepdims=True)
        std = centered.std(axis=2, keepdims=True)
        features = np.divide(
            centered, std, out=np.zeros_like(centered), where=std > 1e-12
        )
    else:
        raise ValueError(f"unknown feature kind {kind!r}")
    labels = ds.epochs.labels()
    folds = cv_fold_ids(ds.epochs, FCMAConfig.online_folds)
    return features.astype(np.float32), labels, folds


def score_voxels_amplitude(
    dataset: FMRIDataset,
    voxels: np.ndarray | None = None,
    backend: KernelBackend | None = None,
    kind: FeatureKind = "timecourse",
) -> VoxelScores:
    """Voxel-wise MVPA scores from amplitudes (the FCMA foil).

    The exact counterpart of FCMA's stage-3 scoring, with each voxel's
    feature being its own activity rather than its correlation vector.
    """
    features, labels, folds = amplitude_features(dataset, kind)
    if voxels is None:
        voxels = np.arange(dataset.n_voxels, dtype=np.int64)
    else:
        voxels = np.asarray(voxels, dtype=np.int64)
        if voxels.ndim != 1 or voxels.size == 0:
            raise ValueError("voxels must be a non-empty 1D index array")
    if backend is None:
        backend = PhiSVM()

    accuracies = np.empty(voxels.size)
    for i, v in enumerate(voxels):
        x = features[:, v, :]  # (M, f)
        kernel = linear_kernel(x)
        accuracies[i] = grouped_cross_validation(
            backend, kernel, labels, folds
        ).accuracy
    return VoxelScores(voxels=voxels, accuracies=accuracies)


def pattern_accuracy(
    dataset: FMRIDataset,
    voxels: np.ndarray,
    backend: KernelBackend | None = None,
    kind: FeatureKind = "timecourse",
) -> float:
    """Whole-pattern MVPA over a voxel set (classic multi-voxel decoding).

    Concatenates the selected voxels' amplitude features per epoch and
    cross-validates one classifier — the strongest amplitude-based
    competitor.  Still blind to correlation-coded structure.
    """
    voxels = np.asarray(voxels, dtype=np.int64)
    if voxels.ndim != 1 or voxels.size == 0:
        raise ValueError("voxels must be a non-empty 1D index array")
    features, labels, folds = amplitude_features(dataset, kind)
    x = features[:, voxels, :].reshape(features.shape[0], -1)
    if backend is None:
        backend = PhiSVM()
    kernel = linear_kernel(x)
    return grouped_cross_validation(backend, kernel, labels, folds).accuracy
