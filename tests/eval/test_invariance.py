"""Cross-path accuracy invariance on a ground-truth scenario preset.

The accuracy gate is only trustworthy if *every* compute path reports
the same number: dense and CSR emitters, under the serial, process-pool
and master-worker executors, must produce identical voxel selections on
a scenario dataset — hence identical :class:`SelectionScore`s.  The
incremental (streaming) emitter has no batch-selection variant, so it
is pinned at the correlation plane instead: streaming the scenario's
epochs TR by TR reproduces the batch stage-1/2 output bitwise, and
stage 3 is shared, so its selection cannot diverge either.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.core.correlation import normalize_epoch_data
from repro.core.engine import DenseEmitter, run_engine
from repro.core.incremental import IncrementalEmitter
from repro.data.designs import (
    ConnectivityConfig,
    GroundTruthConfig,
    block_design,
    design_ground_truth,
    generate_design_dataset,
)
from repro.eval import score_selection
from repro.exec import RunContext, make_executor

EXECUTORS = ("serial", "pool", "master-worker")
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
    # task_voxels=12 carves 3 tasks, so pool/master-worker really
    # exercise fan-out and merge.
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


class TestIncrementalEmitterInvariance:
    def test_streaming_planes_match_batch_on_scenario_data(self, dataset):
        """Scenario epochs streamed TR by TR == batch stage 1/2, bitwise."""
        assigned = np.arange(0, SCENARIO.n_voxels, 3, dtype=np.int64)
        for subject in dataset.subject_ids():
            bold = dataset.subject_data(subject)
            windows = [
                bold[:, e.as_slice()] for e in dataset.epochs.for_subject(subject)
            ]
            emitter = IncrementalEmitter(assigned, SCENARIO.n_voxels)
            for window in windows:
                for t in range(window.shape[1]):
                    emitter.push_tr(window[:, t])
                assert emitter.complete_epoch() is not None
            batch, _ = run_engine(
                normalize_epoch_data(np.stack(windows)),
                assigned,
                len(windows),
                DenseEmitter(),
            )
            assert np.array_equal(emitter.normalized(), batch)
