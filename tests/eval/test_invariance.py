"""Cross-path accuracy invariance on a ground-truth scenario preset.

The accuracy gate is only trustworthy if *every* compute path reports
the same number: dense and CSR emitters, under the serial and
master-worker executors, must produce identical voxel selections on
a scenario dataset — hence identical :class:`SelectionScore`s.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.data.designs import (
    ConnectivityConfig,
    GroundTruthConfig,
    block_design,
    design_ground_truth,
    generate_design_dataset,
)
from repro.eval import score_selection
from repro.exec import RunContext, make_executor

EXECUTORS = ("serial", "master-worker")
#: Engine-backed emitters with a batch-selection variant.
EMITTER_CONFIGS = {
    "dense": dict(variant="optimized-batched"),
    "csr": dict(variant="sparse-batched", threshold=0.0),
}

SCENARIO = GroundTruthConfig(
    design=block_design(epoch_length=6, epochs_per_condition=3, gap=2,
                        dummy_trs=1),
    connectivity=ConnectivityConfig(n_informative=12, snr=2.0),
    n_voxels=36,
    n_subjects=3,
    seed=11,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_design_dataset(SCENARIO)


@pytest.fixture(scope="module")
def truth():
    return design_ground_truth(SCENARIO)


def _select(dataset, emitter: str, executor: str):
    # task_voxels=12 carves 3 tasks, so master-worker really exercises
    # fan-out and merge.
    config = FCMAConfig(
        target_block=64, task_voxels=12, **EMITTER_CONFIGS[emitter]
    )
    runner = make_executor(executor, n_workers=2)
    scores = runner.run(dataset, RunContext(config, seed=SCENARIO.seed))
    return scores.sorted_by_accuracy()


@pytest.fixture(scope="module")
def reference(dataset):
    return _select(dataset, "dense", "serial")


class TestCrossPathInvariance:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("emitter", sorted(EMITTER_CONFIGS))
    def test_selection_identical_across_paths(
        self, dataset, reference, emitter, executor
    ):
        scores = _select(dataset, emitter, executor)
        np.testing.assert_array_equal(scores.voxels, reference.voxels)
        np.testing.assert_array_equal(
            scores.accuracies, reference.accuracies
        )

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("emitter", sorted(EMITTER_CONFIGS))
    def test_accuracy_scores_identical_across_paths(
        self, dataset, truth, reference, emitter, executor
    ):
        scores = _select(dataset, emitter, executor)
        assert score_selection(scores, truth) == score_selection(
            reference, truth
        )
