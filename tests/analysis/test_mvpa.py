"""Tests for the amplitude-MVPA foil — including the discriminating
experiment behind FCMA's premise."""

import numpy as np
import pytest

from repro.analysis.mvpa import (
    amplitude_features,
    pattern_accuracy,
    score_voxels_amplitude,
)
from repro.core import FCMAConfig
from repro.data import SyntheticConfig, generate_dataset, ground_truth_voxels
from repro.exec import RunContext, execute_task


@pytest.fixture(scope="module")
def contrast_setup():
    cfg = SyntheticConfig(
        n_voxels=100, n_subjects=4, epochs_per_subject=8, epoch_length=12,
        n_informative=16, n_groups=4, seed=55, name="contrast",
    )
    return cfg, generate_dataset(cfg)


class TestFeatures:
    def test_timecourse_shape(self, contrast_setup):
        _, ds = contrast_setup
        feats, labels, folds = amplitude_features(ds, "timecourse")
        assert feats.shape == (ds.n_epochs, ds.n_voxels, ds.epoch_length)
        assert labels.shape == (ds.n_epochs,)
        assert folds.shape == (ds.n_epochs,)

    def test_mean_shape(self, contrast_setup):
        _, ds = contrast_setup
        feats, _, _ = amplitude_features(ds, "mean")
        assert feats.shape == (ds.n_epochs, ds.n_voxels, 1)

    def test_timecourse_zscored(self, contrast_setup):
        _, ds = contrast_setup
        feats, _, _ = amplitude_features(ds, "timecourse")
        np.testing.assert_allclose(feats.mean(axis=2), 0.0, atol=1e-4)

    def test_single_subject_uses_kfold(self, contrast_setup):
        _, ds = contrast_setup
        _, _, folds = amplitude_features(ds.single_subject(0))
        assert np.unique(folds).size == 4

    def test_unknown_kind(self, contrast_setup):
        _, ds = contrast_setup
        with pytest.raises(ValueError, match="kind"):
            amplitude_features(ds, "wavelet")


class TestScoring:
    def test_scores_shape_and_range(self, contrast_setup):
        _, ds = contrast_setup
        scores = score_voxels_amplitude(ds, np.arange(10))
        assert len(scores) == 10
        assert ((scores.accuracies >= 0) & (scores.accuracies <= 1)).all()

    def test_default_scores_all_voxels(self, contrast_setup):
        _, ds = contrast_setup
        scores = score_voxels_amplitude(ds, np.arange(5))
        assert len(scores) == 5

    def test_empty_voxels_rejected(self, contrast_setup):
        _, ds = contrast_setup
        with pytest.raises(ValueError):
            score_voxels_amplitude(ds, np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            pattern_accuracy(ds, np.array([], dtype=np.int64))


class TestFCMAPremise:
    """The experiment motivating the paper: information carried only in
    correlations is invisible to amplitude MVPA but found by FCMA."""

    def test_amplitude_mvpa_at_chance_on_informative_voxels(self, contrast_setup):
        cfg, ds = contrast_setup
        gt = ground_truth_voxels(cfg)
        amp = score_voxels_amplitude(ds, gt)
        assert abs(amp.accuracies.mean() - 0.5) < 0.12

    def test_fcma_classifies_the_same_voxels(self, contrast_setup):
        cfg, ds = contrast_setup
        gt = ground_truth_voxels(cfg)
        fcma = execute_task(ds, gt, RunContext(FCMAConfig(target_block=64)))
        amp = score_voxels_amplitude(ds, gt)
        assert fcma.accuracies.mean() > amp.accuracies.mean() + 0.2

    def test_pattern_mvpa_also_clearly_behind(self, contrast_setup):
        cfg, ds = contrast_setup
        gt = ground_truth_voxels(cfg)
        fcma = execute_task(ds, gt, RunContext(FCMAConfig(target_block=64)))
        pattern = pattern_accuracy(ds, gt)
        assert fcma.accuracies.mean() > pattern + 0.1
