#!/usr/bin/env python
"""FCMA beyond two conditions: a three-way attention experiment.

The paper's datasets are binary (face/scene, left/right), but nothing
in FCMA is inherently two-class.  This example runs the full pipeline
on a synthetic three-condition design (attend-left / attend-right /
attend-neither): the SVM stage transparently switches to one-vs-one
voting (LibSVM's multiclass scheme), and voxel accuracies are judged
against a 1/3 chance level.

Run:  python examples/multiclass_attention.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    FCMAConfig,
    RunContext,
    SerialExecutor,
    generate_dataset,
    ground_truth_voxels,
)
from repro.analysis import accuracy_p_value, selection_precision
from repro.data import SyntheticConfig


def main() -> None:
    cfg = SyntheticConfig(
        n_voxels=240,
        n_subjects=5,
        epochs_per_subject=12,   # 4 epochs per condition per subject
        epoch_length=12,
        n_conditions=3,
        n_informative=24,
        n_groups=4,
        seed=2718,
        name="attention-3way",
    )
    dataset = generate_dataset(cfg)
    print(f"dataset: {dataset} ({dataset.epochs.n_conditions} conditions)")

    scores = SerialExecutor().run(
        dataset, RunContext(FCMAConfig(task_voxels=80))
    )
    truth = ground_truth_voxels(cfg)
    top = scores.top(len(truth))

    chance = 1.0 / 3.0
    print(f"\ntop voxels (chance level = {chance:.3f}):")
    for voxel, acc in zip(top.voxels[:10], top.accuracies[:10]):
        marker = "*" if voxel in truth else " "
        p = accuracy_p_value(acc, dataset.n_epochs, chance=chance)
        print(f"  {marker} voxel {voxel:4d}  accuracy {acc:.3f}  p={p:.2e}")

    informative_acc = scores.accuracies[np.isin(scores.voxels, truth)].mean()
    other_acc = scores.accuracies[~np.isin(scores.voxels, truth)].mean()
    precision = selection_precision(top.voxels, truth)
    print(f"\nmean accuracy: informative {informative_acc:.3f}, "
          f"uninformative {other_acc:.3f} (chance {chance:.3f})")
    print(f"top-k selection precision: {precision:.2f}")
    assert informative_acc > chance + 0.2
    assert abs(other_acc - chance) < 0.12


if __name__ == "__main__":
    main()
