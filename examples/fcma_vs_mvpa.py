#!/usr/bin/env python
"""FCMA vs amplitude MVPA: the experiment that motivates the paper.

The synthetic datasets plant information *only in voxel-pair
correlations* — every voxel's amplitude distribution is identical
across conditions.  This script scores the planted voxels three ways:

1. per-voxel amplitude MVPA (conventional univariate decoding),
2. whole-pattern amplitude MVPA (classic multivoxel decoding),
3. FCMA (classifying each voxel's whole-brain correlation vectors),

showing that only FCMA finds the information — the reason the paper
computes full correlation matrices at all.

Run:  python examples/fcma_vs_mvpa.py
"""

from __future__ import annotations

import numpy as np

from repro import FCMAConfig, RunContext, generate_dataset, ground_truth_voxels
from repro.analysis import pattern_accuracy, score_voxels_amplitude
from repro.bench import render_table
from repro.data import SyntheticConfig
from repro.exec import execute_task


def main() -> None:
    cfg = SyntheticConfig(
        n_voxels=200,
        n_subjects=5,
        epochs_per_subject=12,
        epoch_length=12,
        n_informative=24,
        n_groups=4,
        seed=404,
        name="premise",
    )
    dataset = generate_dataset(cfg)
    truth = ground_truth_voxels(cfg)
    print(f"dataset: {dataset}")
    print(f"planted informative voxels: {len(truth)} "
          f"(information is correlation-coded by construction)\n")

    # 1 + 2: amplitude-based approaches on the *planted* voxels — the
    # best case for MVPA, since we hand it the right voxels.
    amp = score_voxels_amplitude(dataset, truth)
    pattern = pattern_accuracy(dataset, truth)

    # 3: FCMA on the same voxels.
    fcma = execute_task(dataset, truth, RunContext(FCMAConfig()))

    # Chance reference: FCMA on uninformative voxels.
    others = np.setdiff1d(np.arange(cfg.n_voxels), truth)[: len(truth)]
    fcma_null = execute_task(dataset, others, RunContext(FCMAConfig()))

    print(render_table(
        ["method", "mean held-out accuracy"],
        [
            ["per-voxel amplitude MVPA (planted voxels)", f"{amp.accuracies.mean():.3f}"],
            ["whole-pattern amplitude MVPA (planted voxels)", f"{pattern:.3f}"],
            ["FCMA (planted voxels)", f"{fcma.accuracies.mean():.3f}"],
            ["FCMA (uninformative voxels, chance ref)", f"{fcma_null.accuracies.mean():.3f}"],
        ],
        title="Can each method read correlation-coded information?",
    ))

    print("\nconclusion: amplitude-based decoding hovers at chance while "
          "FCMA classifies, because the\ncondition information lives in "
          "*which voxels co-fluctuate*, not in how active any voxel is.")
    assert fcma.accuracies.mean() > amp.accuracies.mean() + 0.2


if __name__ == "__main__":
    main()
