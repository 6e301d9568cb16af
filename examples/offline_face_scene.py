#!/usr/bin/env python
"""Offline analysis: nested leave-one-subject-out CV (paper Section 5.2.1).

Reproduces the paper's offline experiment on a scaled face-scene
surrogate: for each held-out subject, voxels are selected by FCMA on
the remaining subjects (inner LOSO cross-validation), a final
classifier is trained on the selected voxels' correlation patterns,
and generalization is measured on the held-out subject.  Voxels
selected consistently across folds form the reliable ROI.

Run:  python examples/offline_face_scene.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    FCMAConfig,
    ProcessPoolExecutor,
    generate_dataset,
    ground_truth_voxels,
)
from repro.analysis import run_offline_analysis, selection_precision
from repro.data import face_scene_scaled


def main() -> None:
    # Scaled face-scene surrogate: same epochs/subject (12) and epoch
    # length (12) as the real dataset, shrunk to 600 voxels x 5 subjects.
    cfg = face_scene_scaled(n_voxels=600, n_subjects=5)
    dataset = generate_dataset(cfg)
    print(f"dataset: {dataset}")

    fcma = FCMAConfig(task_voxels=120)  # the paper's task granularity
    top_k = 25

    # Inner voxel selection fans out across local cores, mirroring the
    # master-worker decomposition of the cluster runs.
    t0 = time.perf_counter()
    result = run_offline_analysis(
        dataset, fcma, top_k=top_k, executor=ProcessPoolExecutor()
    )
    elapsed = time.perf_counter() - t0

    print(f"\nnested LOSO finished in {elapsed:.1f} s "
          f"({len(result.folds)} outer folds)")
    print(f"{'fold':>4}  {'held-out subject':>16}  {'test accuracy':>13}  "
          f"{'selection precision':>19}")
    truth = ground_truth_voxels(cfg)
    for i, fold in enumerate(result.folds):
        prec = selection_precision(fold.selected.voxels, truth)
        print(f"{i:>4}  {fold.held_out_subject:>16}  "
              f"{fold.test_accuracy:>13.3f}  {prec:>19.2f}")

    print(f"\nmean held-out accuracy: {result.mean_test_accuracy:.3f}")

    # Reliable ROI: voxels selected in most folds (paper: "the selected
    # voxels across different folds can be statistically compared").
    counts = result.selection_counts(cfg.n_voxels)
    reliable = result.reliable_voxels(cfg.n_voxels, min_folds=len(result.folds) - 1)
    hits = np.isin(reliable, truth).sum()
    print(f"reliable voxels (selected in >= {len(result.folds) - 1} folds): "
          f"{reliable.size}, of which {hits} are planted informative voxels")
    print(f"max selection count: {counts.max()} / {len(result.folds)} folds")


if __name__ == "__main__":
    main()
