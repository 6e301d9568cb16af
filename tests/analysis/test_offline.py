"""Tests for the offline nested cross-validation analysis."""

import numpy as np
import pytest

from repro.analysis.offline import (
    run_offline_analysis,
    selected_voxel_features,
)
from repro.core import FCMAConfig
from repro.data import generate_dataset, ground_truth_voxels


@pytest.fixture(scope="module")
def analysis_inputs(small_config_module=None):
    from repro.data import SyntheticConfig

    cfg = SyntheticConfig(
        n_voxels=100, n_subjects=4, epochs_per_subject=8, epoch_length=12,
        n_informative=16, n_groups=4, seed=21, name="offline-test",
    )
    ds = generate_dataset(cfg)
    fcma = FCMAConfig(task_voxels=100, target_block=64)
    return cfg, ds, fcma


@pytest.fixture(scope="module")
def offline_result(analysis_inputs):
    cfg, ds, fcma = analysis_inputs
    return cfg, ds, run_offline_analysis(ds, fcma, top_k=12)


class TestStructure:
    def test_one_fold_per_subject(self, offline_result):
        cfg, ds, res = offline_result
        assert len(res.folds) == cfg.n_subjects
        assert sorted(f.held_out_subject for f in res.folds) == ds.subject_ids()

    def test_top_k_respected(self, offline_result):
        _, _, res = offline_result
        assert all(len(f.selected) == 12 for f in res.folds)
        assert res.top_k == 12

    def test_accuracies_valid(self, offline_result):
        _, _, res = offline_result
        for f in res.folds:
            assert 0.0 <= f.test_accuracy <= 1.0
        assert 0.0 <= res.mean_test_accuracy <= 1.0


class TestScience:
    def test_generalizes_to_held_out_subjects(self, offline_result):
        """The planted structure is cross-subject, so the final
        classifier must beat chance on unseen subjects."""
        _, _, res = offline_result
        assert res.mean_test_accuracy > 0.75

    def test_selected_voxels_overlap_ground_truth(self, offline_result):
        cfg, _, res = offline_result
        gt = set(ground_truth_voxels(cfg).tolist())
        for f in res.folds:
            precision = len(set(f.selected.voxels.tolist()) & gt) / len(f.selected)
            assert precision >= 0.5

    def test_selection_counts(self, offline_result):
        cfg, _, res = offline_result
        counts = res.selection_counts(cfg.n_voxels)
        assert counts.sum() == 12 * cfg.n_subjects
        assert counts.max() <= cfg.n_subjects

    def test_reliable_voxels_are_informative(self, offline_result):
        cfg, _, res = offline_result
        gt = set(ground_truth_voxels(cfg).tolist())
        reliable = res.reliable_voxels(cfg.n_voxels, min_folds=cfg.n_subjects)
        if reliable.size:
            hits = len(set(reliable.tolist()) & gt)
            assert hits / reliable.size >= 0.7

    def test_reliable_validation(self, offline_result):
        cfg, _, res = offline_result
        with pytest.raises(ValueError):
            res.reliable_voxels(cfg.n_voxels, min_folds=0)


class TestFeatures:
    def test_feature_shapes(self, analysis_inputs):
        _, ds, _ = analysis_inputs
        voxels = np.array([2, 5, 9])
        feats, labels, subjects = selected_voxel_features(ds, voxels)
        assert feats.shape == (ds.n_epochs, 3 * ds.n_voxels)
        assert labels.shape == (ds.n_epochs,)
        assert subjects.shape == (ds.n_epochs,)

    def test_empty_voxels_rejected(self, analysis_inputs):
        _, ds, _ = analysis_inputs
        with pytest.raises(ValueError):
            selected_voxel_features(ds, np.array([], dtype=np.int64))


class TestValidation:
    def test_needs_three_subjects(self, analysis_inputs):
        _, ds, fcma = analysis_inputs
        two = ds.subset_subjects([0, 1])
        with pytest.raises(ValueError, match="3 subjects"):
            run_offline_analysis(two, fcma)

    def test_bad_top_k(self, analysis_inputs):
        _, ds, fcma = analysis_inputs
        with pytest.raises(ValueError):
            run_offline_analysis(ds, fcma, top_k=0)

    def test_custom_selection_runner(self, analysis_inputs):
        """A custom executor (e.g. a third-party backend) runs every
        fold's selection."""
        from repro.exec import SerialExecutor

        cfg, ds, fcma = analysis_inputs
        calls = []

        class Counting:
            name = "counting"

            def run(self, dataset, ctx, voxels=None):
                calls.append(dataset.n_subjects)
                return SerialExecutor().run(dataset, ctx, voxels)

        run_offline_analysis(ds, fcma, top_k=5, executor=Counting())
        assert calls == [cfg.n_subjects - 1] * cfg.n_subjects
