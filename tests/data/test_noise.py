"""Tests for noise injection and preprocessing robustness."""

import numpy as np
import pytest

from repro.data import NoiseConfig, corrupt_dataset
from repro.data.noise import (
    add_motion_spikes,
    add_physiological_noise,
    add_scanner_drift,
)
from repro.data.preprocessing import detrend, highpass_filter


def clean(n_vox=8, n_t=120, seed=0):
    return np.random.default_rng(seed).standard_normal(
        (n_vox, n_t)
    ).astype(np.float32)


class TestDrift:
    def test_adds_low_frequency_energy(self):
        x = clean()
        y = add_scanner_drift(x, amplitude=2.0)
        # variance grows, dominated by slow components
        assert y.var() > x.var()
        detrended = detrend(y, order=2)
        assert detrended.var() < y.var()

    def test_zero_amplitude_identity(self):
        x = clean()
        np.testing.assert_array_equal(add_scanner_drift(x, 0.0), x)

    def test_deterministic(self):
        x = clean()
        np.testing.assert_array_equal(
            add_scanner_drift(x, 1.0, seed=3), add_scanner_drift(x, 1.0, seed=3)
        )

    def test_does_not_mutate_input(self):
        x = clean()
        before = x.copy()
        add_scanner_drift(x, 1.0)
        np.testing.assert_array_equal(x, before)


class TestPhysio:
    def test_adds_oscillation_at_known_frequency(self):
        x = np.zeros((4, 256), dtype=np.float32)
        y = add_physiological_noise(
            x, amplitude=1.0, tr_seconds=1.0, respiratory_hz=0.25
        )
        spectrum = np.abs(np.fft.rfft(y[0]))
        freqs = np.fft.rfftfreq(256, d=1.0)
        peak = freqs[spectrum.argmax()]
        # dominant peak at the respiratory frequency (or its alias)
        assert abs(peak - 0.25) < 0.06 or abs(peak - 0.1) < 0.06

    def test_per_voxel_gain_varies(self):
        x = np.zeros((16, 64), dtype=np.float32)
        y = add_physiological_noise(x, amplitude=1.0)
        stds = y.std(axis=1)
        assert stds.std() > 0.01  # not a uniform global signal

    def test_zero_amplitude_identity(self):
        x = clean()
        np.testing.assert_array_equal(add_physiological_noise(x, 0.0), x)


class TestMotion:
    def test_spikes_visible_in_global_signal(self):
        x = np.zeros((32, 200), dtype=np.float32)
        y = add_motion_spikes(x, amplitude=3.0, rate_per_100=2.0, seed=1)
        frame_energy = (np.abs(y) ** 2).sum(axis=0)
        spiked = frame_energy > 0
        assert spiked.any()
        # spikes are sparse: most frames untouched, spiked frames large
        assert spiked.sum() < 40
        assert frame_energy.max() > 32 * 3.0  # ~n_vox * amplitude^2 scale

    def test_zero_rate_identity(self):
        x = clean()
        np.testing.assert_array_equal(
            add_motion_spikes(x, 1.0, rate_per_100=0.0), x
        )

    def test_spike_decays_into_next_frame(self):
        x = np.zeros((8, 50), dtype=np.float32)
        y = add_motion_spikes(x, amplitude=1.0, rate_per_100=2.0, seed=7)
        spikes = np.nonzero((np.abs(y) > 0).any(axis=0))[0]
        assert spikes.size >= 2  # spike frame + decay frame


class TestCorruptDataset:
    def test_structure_preserved(self, tiny_dataset):
        noisy = corrupt_dataset(tiny_dataset, NoiseConfig(seed=4))
        assert noisy.n_voxels == tiny_dataset.n_voxels
        assert noisy.epochs == tiny_dataset.epochs

    def test_actually_corrupts(self, tiny_dataset):
        noisy = corrupt_dataset(tiny_dataset, NoiseConfig(seed=4))
        assert not np.allclose(
            noisy.subject_data(0), tiny_dataset.subject_data(0)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(drift=-1)


class TestRobustnessOfPipeline:
    def test_preprocessing_recovers_roi_under_noise(self):
        """The full loop: corrupt -> preprocess -> FCMA still finds the
        planted ROI (drift/physio are what eq. 2 + detrending handle)."""
        from repro.core import FCMAConfig
        from repro.exec import RunContext, execute_task
        from repro.data import (
            SyntheticConfig,
            generate_dataset,
            ground_truth_voxels,
            preprocess_dataset,
        )

        cfg = SyntheticConfig(
            n_voxels=100, n_subjects=4, epochs_per_subject=8, epoch_length=12,
            n_informative=16, n_groups=4, seed=61, name="robust",
        )
        ds = generate_dataset(cfg)
        noisy = corrupt_dataset(
            ds, NoiseConfig(drift=0.6, physio=0.3, motion=0.4, seed=9)
        )
        cleaned = preprocess_dataset(noisy, detrend_order=2)
        scores = execute_task(
            cleaned,
            np.arange(cfg.n_voxels),
            RunContext(FCMAConfig(target_block=64)),
        )
        gt = set(ground_truth_voxels(cfg).tolist())
        top = set(scores.top(len(gt)).voxels.tolist())
        assert len(top & gt) / len(gt) >= 0.6
