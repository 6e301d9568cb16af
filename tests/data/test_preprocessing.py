"""Tests for repro.data.preprocessing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.preprocessing import (
    detrend,
    highpass_filter,
    preprocess_dataset,
    regress_nuisance,
    variance_normalize,
)


def bold(n_voxels=5, n_time=50, seed=0):
    return np.random.default_rng(seed).standard_normal(
        (n_voxels, n_time)
    ).astype(np.float32)


class TestDetrend:
    def test_removes_mean(self):
        x = bold() + 7.0
        out = detrend(x, order=0)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-4)

    def test_removes_linear_trend(self):
        t = np.linspace(0, 1, 40, dtype=np.float32)
        x = np.outer(np.array([1.0, -2.0], dtype=np.float32), t)
        out = detrend(x, order=1)
        np.testing.assert_allclose(out, 0.0, atol=1e-4)

    def test_preserves_high_frequency(self):
        t = np.arange(64)
        sig = np.sin(2 * np.pi * t / 8).astype(np.float32)[None]
        out = detrend(sig + 5.0, order=1)
        # energy of the oscillation survives
        assert np.abs(out).max() > 0.9

    def test_quadratic(self):
        t = np.linspace(-1, 1, 30)
        x = (3 * t**2)[None].astype(np.float32)
        out = detrend(x, order=2)
        np.testing.assert_allclose(out, 0.0, atol=1e-3)

    def test_order_too_high(self):
        with pytest.raises(ValueError, match="too high"):
            detrend(bold(n_time=5), order=5)

    def test_negative_order(self):
        with pytest.raises(ValueError, match="order"):
            detrend(bold(), order=-1)

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2D"):
            detrend(np.zeros(10))

    def test_output_float32(self):
        assert detrend(bold()).dtype == np.float32


class TestNuisanceRegression:
    def test_removes_confound(self):
        rng = np.random.default_rng(3)
        confound = rng.standard_normal(60)
        x = np.outer(np.array([2.0, -1.0]), confound).astype(np.float32)
        out = regress_nuisance(x, confound[None])
        np.testing.assert_allclose(out, 0.0, atol=1e-4)

    def test_orthogonal_signal_survives(self):
        rng = np.random.default_rng(4)
        confound = rng.standard_normal(200)
        signal = rng.standard_normal(200)
        x = (signal[None] * 1.0).astype(np.float32)
        out = regress_nuisance(x, confound[None])
        corr = np.corrcoef(out[0].astype(np.float64), signal)[0, 1]
        assert corr > 0.95

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="time points"):
            regress_nuisance(bold(n_time=50), np.zeros((1, 40)))


class TestHighpass:
    def test_removes_slow_drift(self):
        t = np.arange(100)
        drift = np.cos(np.pi * (t + 0.5) / 100)[None].astype(np.float32)
        out = highpass_filter(drift, cutoff_cycles=3)
        assert np.abs(out).max() < 0.05

    def test_keeps_fast_signal(self):
        t = np.arange(100)
        fast = np.sin(2 * np.pi * t / 5)[None].astype(np.float32)
        out = highpass_filter(fast, cutoff_cycles=3)
        assert np.abs(out).max() > 0.8

    def test_cutoff_zero_removes_only_mean(self):
        x = bold() + 3.0
        out = highpass_filter(x, cutoff_cycles=0)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-3)

    def test_negative_cutoff(self):
        with pytest.raises(ValueError):
            highpass_filter(bold(), cutoff_cycles=-1)


class TestVarianceNormalize:
    def test_unit_variance(self):
        out = variance_normalize(bold())
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-3)

    def test_constant_voxel_zeroed(self):
        x = np.ones((2, 30), dtype=np.float32)
        x[1] = bold(1, 30)[0]
        out = variance_normalize(x)
        np.testing.assert_array_equal(out[0], 0.0)
        assert out[1].std() > 0.9


class TestPreprocessDataset:
    def test_chain_preserves_structure(self, tiny_dataset):
        out = preprocess_dataset(tiny_dataset, detrend_order=1)
        assert out.n_voxels == tiny_dataset.n_voxels
        assert out.epochs == tiny_dataset.epochs
        assert out.name == tiny_dataset.name

    def test_normalize_stage(self, tiny_dataset):
        out = preprocess_dataset(tiny_dataset, normalize=True)
        stds = out.subject_data(0).std(axis=1)
        np.testing.assert_allclose(stds, 1.0, atol=1e-2)

    def test_pipeline_still_recovers_signal(self, tiny_dataset, tiny_config):
        """Preprocessing must not destroy the planted correlations."""
        from repro.core import FCMAConfig
        from repro.exec import RunContext, execute_task
        from repro.data import ground_truth_voxels

        pre = preprocess_dataset(tiny_dataset, detrend_order=1)
        scores = execute_task(
            pre,
            np.arange(tiny_config.n_voxels),
            RunContext(FCMAConfig(target_block=32)),
        )
        gt = set(ground_truth_voxels(tiny_config).tolist())
        top = set(scores.top(len(gt)).voxels.tolist())
        assert len(top & gt) / len(gt) > 0.5


@settings(max_examples=20, deadline=None)
@given(order=st.integers(0, 3), seed=st.integers(0, 100))
def test_detrend_idempotent(order, seed):
    """Property: detrending twice equals detrending once."""
    x = bold(3, 40, seed)
    once = detrend(x, order)
    twice = detrend(once, order)
    np.testing.assert_allclose(once, twice, atol=1e-3)
