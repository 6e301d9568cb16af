"""Tests for experimental designs: shuffled orders and ground-truth presets.

The second half is the property suite for :mod:`repro.data.designs` —
the design-driven ground-truth generator.  Hypothesis draws random
design configurations and checks the invariants every consumer relies
on: balanced conditions, non-overlapping epochs, seed determinism, and
shuffled-order preservation of the timing grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import EpochTable, SyntheticConfig, generate_dataset
from repro.data.designs import (
    DESIGN_PRESETS,
    ConnectivityConfig,
    DesignConfig,
    GroundTruthConfig,
    block_design,
    convolve_hrf,
    design_epoch_table,
    design_ground_truth,
    double_gamma_hrf,
    event_design,
    generate_design_dataset,
    ground_truth_regions,
    jittered_design,
)


class TestShuffledOrder:
    def test_balanced_per_subject(self):
        t = EpochTable.regular(3, 12, 4, n_conditions=3, order="shuffled", seed=2)
        for s in range(3):
            labels = [e.condition for e in t.for_subject(s)]
            np.testing.assert_array_equal(np.bincount(labels), [4, 4, 4])

    def test_deterministic(self):
        a = EpochTable.regular(2, 8, 4, order="shuffled", seed=5)
        b = EpochTable.regular(2, 8, 4, order="shuffled", seed=5)
        assert a == b

    def test_seed_changes_order(self):
        a = EpochTable.regular(2, 8, 4, order="shuffled", seed=1)
        b = EpochTable.regular(2, 8, 4, order="shuffled", seed=2)
        assert a != b

    def test_subjects_get_different_orders(self):
        t = EpochTable.regular(4, 10, 4, order="shuffled", seed=3)
        orders = {
            tuple(e.condition for e in t.for_subject(s)) for s in range(4)
        }
        assert len(orders) >= 2

    def test_actually_not_alternating(self):
        t = EpochTable.regular(1, 16, 4, order="shuffled", seed=4)
        labels = [e.condition for e in t]
        assert labels != [k % 2 for k in range(16)]

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            EpochTable.regular(1, 4, 4, order="sorted")

    def test_timing_structure_preserved(self):
        t = EpochTable.regular(1, 6, epoch_length=10, gap=2, order="shuffled")
        starts = [e.start for e in t]
        assert starts == [0, 12, 24, 36, 48, 60]


class TestShuffledSynthetic:
    def test_config_validates(self):
        with pytest.raises(ValueError, match="condition_order"):
            SyntheticConfig(condition_order="sorted")

    def test_generated_dataset_shuffled(self):
        cfg = SyntheticConfig(
            n_voxels=40, n_subjects=2, epochs_per_subject=12, epoch_length=8,
            n_informative=8, n_groups=2, condition_order="shuffled", seed=9,
        )
        ds = generate_dataset(cfg)
        labels = [e.condition for e in ds.epochs.for_subject(0)]
        assert labels != [k % 2 for k in range(12)]
        np.testing.assert_array_equal(np.bincount(labels), [6, 6])

    def test_pipeline_recovers_roi_on_shuffled_design(self):
        from repro.core import FCMAConfig
        from repro.exec import RunContext, execute_task
        from repro.data import ground_truth_voxels

        cfg = SyntheticConfig(
            n_voxels=80, n_subjects=4, epochs_per_subject=8, epoch_length=12,
            n_informative=12, n_groups=3, condition_order="shuffled", seed=17,
        )
        ds = generate_dataset(cfg)
        gt = set(ground_truth_voxels(cfg).tolist())
        scores = execute_task(
            ds, np.arange(80), RunContext(FCMAConfig(target_block=32))
        )
        top = set(scores.top(len(gt)).voxels.tolist())
        assert len(top & gt) / len(gt) >= 0.7


# ---------------------------------------------------------------------------
# Ground-truth design presets (repro.data.designs)
# ---------------------------------------------------------------------------


@st.composite
def design_configs(draw):
    """A random, always-valid :class:`DesignConfig`."""
    kind = draw(st.sampled_from(sorted(DESIGN_PRESETS)))
    return DesignConfig(
        kind=kind,
        epoch_length=draw(st.integers(2, 12)),
        epochs_per_condition=draw(st.integers(1, 3)),
        n_conditions=draw(st.integers(2, 3)),
        gap=draw(st.integers(0, 4)),
        dummy_trs=draw(st.integers(0, 3)),
        order=draw(st.sampled_from(["alternating", "shuffled"])),
        event_duration_s=1.0,
        isi_s=4.0,
        isi_jitter_s=1.5 if kind == "jittered" else 0.0,
    )


class TestDesignEpochTableProperties:
    """Hypothesis invariants of design-driven epoch construction."""

    @settings(max_examples=50, deadline=None)
    @given(design=design_configs(), n_subjects=st.integers(1, 4),
           seed=st.integers(0, 1000))
    def test_balanced_conditions_per_subject(self, design, n_subjects, seed):
        table = design_epoch_table(design, n_subjects, seed)
        for subject in range(n_subjects):
            labels = [e.condition for e in table.for_subject(subject)]
            counts = np.bincount(labels, minlength=design.n_conditions)
            np.testing.assert_array_equal(
                counts, [design.epochs_per_condition] * design.n_conditions
            )

    @settings(max_examples=50, deadline=None)
    @given(design=design_configs(), n_subjects=st.integers(1, 4),
           seed=st.integers(0, 1000))
    def test_epochs_never_overlap(self, design, n_subjects, seed):
        table = design_epoch_table(design, n_subjects, seed)
        for subject in range(n_subjects):
            epochs = sorted(table.for_subject(subject), key=lambda e: e.start)
            assert all(e.start >= design.dummy_trs for e in epochs)
            for a, b in zip(epochs, epochs[1:]):
                assert a.start + a.length <= b.start

    @settings(max_examples=50, deadline=None)
    @given(design=design_configs(), n_subjects=st.integers(1, 4),
           seed=st.integers(0, 1000))
    def test_seed_deterministic(self, design, n_subjects, seed):
        a = design_epoch_table(design, n_subjects, seed)
        b = design_epoch_table(design, n_subjects, seed)
        assert a == b

    @settings(max_examples=50, deadline=None)
    @given(design=design_configs(), n_subjects=st.integers(1, 4),
           seed=st.integers(0, 1000))
    def test_shuffle_preserves_timing_grid(self, design, n_subjects, seed):
        """Shuffling permutes labels only — the epoch grid is invariant."""
        shuffled = design_epoch_table(
            design.scaled(order="shuffled"), n_subjects, seed
        )
        alternating = design_epoch_table(
            design.scaled(order="alternating"), n_subjects, seed
        )
        for subject in range(n_subjects):
            s = shuffled.for_subject(subject)
            a = alternating.for_subject(subject)
            assert [e.start for e in s] == [e.start for e in a]
            assert [e.length for e in s] == [e.length for e in a]
            assert sorted(e.condition for e in s) == sorted(
                e.condition for e in a
            )

    @settings(max_examples=25, deadline=None)
    @given(design=design_configs(), n_subjects=st.integers(1, 3),
           seed=st.integers(0, 1000))
    def test_scan_trs_covers_every_epoch(self, design, n_subjects, seed):
        table = design_epoch_table(design, n_subjects, seed)
        assert design.scan_trs >= table.scan_length_required()


class TestDesignConfigValidation:
    def test_presets_are_valid(self):
        for kind, factory in DESIGN_PRESETS.items():
            assert factory().kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown design kind"):
            DesignConfig(kind="resting")

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            block_design(order="sorted")

    @pytest.mark.parametrize("field, value", [
        ("tr_s", 0.0), ("epoch_length", 1), ("epochs_per_condition", 0),
        ("n_conditions", 1), ("gap", -1), ("dummy_trs", -1),
    ])
    def test_bad_geometry_rejected(self, field, value):
        with pytest.raises(ValueError):
            block_design(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("event_duration_s", 0.0), ("isi_s", 0.0), ("isi_jitter_s", -1.0),
        ("isi_jitter_s", 6.0),
    ])
    def test_bad_event_timing_rejected(self, field, value):
        with pytest.raises(ValueError):
            jittered_design(**{field: value})

    def test_scaled_round_trips(self):
        design = event_design(epoch_length=8, gap=2)
        assert design.epoch_length == 8
        assert design.scaled().kind == "event"


class TestEventOnsets:
    def test_block_is_one_whole_epoch_stimulus(self):
        design = block_design()
        np.testing.assert_array_equal(design.event_onsets(), [0.0])
        assert design.event_duration_or_epoch_s == design.epoch_duration_s

    def test_event_grid_is_regular_and_in_bounds(self):
        design = event_design()
        onsets = design.event_onsets()
        assert onsets.size >= 2
        spacing = np.diff(onsets)
        np.testing.assert_allclose(
            spacing, design.event_duration_s + design.isi_s
        )
        assert onsets[-1] + design.event_duration_s <= design.epoch_duration_s

    def test_jittered_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            jittered_design().event_onsets()

    def test_jittered_spacing_within_band(self):
        design = jittered_design()
        rng = np.random.default_rng(7)
        onsets = design.event_onsets(rng)
        spacing = np.diff(onsets) - design.event_duration_s
        assert np.all(spacing >= design.isi_s - design.isi_jitter_s - 1e-9)
        assert np.all(spacing <= design.isi_s + design.isi_jitter_s + 1e-9)

    def test_jittered_deterministic_under_seeded_rng(self):
        design = jittered_design()
        a = design.event_onsets(np.random.default_rng(3))
        b = design.event_onsets(np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestDoubleGammaHRF:
    def test_unit_peak_and_causal_start(self):
        hrf = double_gamma_hrf(0.125)
        assert hrf[0] == 0.0
        assert np.max(np.abs(hrf)) == 1.0
        assert np.argmax(hrf) * 0.125 == pytest.approx(6.0, abs=1.0)

    def test_undershoot_present(self):
        hrf = double_gamma_hrf(0.125)
        assert hrf.min() < 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="dt_s"):
            double_gamma_hrf(0.0)
        with pytest.raises(ValueError, match="duration_s"):
            double_gamma_hrf(1.0, duration_s=0.5)

    def test_convolve_impulse_reproduces_hrf(self):
        hrf = double_gamma_hrf(0.5, duration_s=8.0)
        impulse = np.zeros(40)
        impulse[0] = 1.0
        out = convolve_hrf(impulse, hrf)
        np.testing.assert_allclose(out[: hrf.size], hrf)
        assert out.shape == impulse.shape

    def test_convolve_preserves_leading_shape(self):
        hrf = double_gamma_hrf(0.5, duration_s=4.0)
        signal = np.random.default_rng(0).standard_normal((3, 2, 20))
        assert convolve_hrf(signal, hrf).shape == signal.shape

    def test_convolve_rejects_bad_hrf(self):
        with pytest.raises(ValueError, match="hrf"):
            convolve_hrf(np.ones(4), np.ones((2, 2)))


class TestConnectivityConfig:
    def test_matrices_symmetric_unit_diagonal_distinct(self):
        conn = ConnectivityConfig(n_regions=6)
        seen = []
        for c in range(conn.max_conditions()):
            sigma = conn.ground_truth_matrix(c)
            np.testing.assert_array_equal(sigma, sigma.T)
            np.testing.assert_array_equal(np.diag(sigma), np.ones(6))
            seen.append(sigma)
        for a in range(len(seen)):
            for b in range(a + 1, len(seen)):
                assert not np.array_equal(seen[a], seen[b])

    def test_matrices_positive_definite(self):
        conn = ConnectivityConfig(n_regions=8, coupling=0.49)
        for c in range(conn.max_conditions()):
            np.linalg.cholesky(conn.ground_truth_matrix(c))

    def test_condition_out_of_range(self):
        conn = ConnectivityConfig(n_regions=6)
        with pytest.raises(ValueError, match="out of range"):
            conn.ground_truth_matrix(conn.max_conditions())

    @pytest.mark.parametrize("kwargs", [
        {"n_regions": 1}, {"coupling": 0.0}, {"coupling": 0.5},
        {"n_regions": 6, "n_informative": 5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ConnectivityConfig(**kwargs)


class TestGroundTruthGeneration:
    def test_planted_set_sorted_unique_and_deterministic(self):
        cfg = GroundTruthConfig()
        truth = design_ground_truth(cfg)
        assert truth.size == cfg.connectivity.n_informative
        np.testing.assert_array_equal(truth, np.unique(truth))
        assert truth.min() >= 0 and truth.max() < cfg.n_voxels
        np.testing.assert_array_equal(truth, design_ground_truth(cfg))
        assert not np.array_equal(
            truth, design_ground_truth(cfg.scaled(seed=cfg.seed + 1))
        )

    def test_regions_cover_every_ring_node(self):
        cfg = GroundTruthConfig()
        regions = ground_truth_regions(cfg)
        assert regions.size == cfg.connectivity.n_informative
        np.testing.assert_array_equal(
            np.unique(regions), np.arange(cfg.connectivity.n_regions)
        )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_informative"):
            GroundTruthConfig(
                n_voxels=8,
                connectivity=ConnectivityConfig(n_informative=24),
            )
        with pytest.raises(ValueError, match="regions on the ring"):
            GroundTruthConfig(
                design=block_design(n_conditions=4),
                connectivity=ConnectivityConfig(n_regions=6),
            )

    def test_dataset_bitwise_deterministic(self):
        cfg = GroundTruthConfig(
            design=block_design(epoch_length=4, epochs_per_condition=2,
                                gap=2, dummy_trs=1),
            n_voxels=24, n_subjects=2,
            connectivity=ConnectivityConfig(n_informative=12),
        )
        a = generate_design_dataset(cfg)
        b = generate_design_dataset(cfg)
        assert a.epochs == b.epochs
        for subject in a.subject_ids():
            sa, sb = a.subject_data(subject), b.subject_data(subject)
            assert sa.dtype == np.float32
            assert sa.tobytes() == sb.tobytes()

    def test_adding_subjects_preserves_earlier_subjects(self):
        base = GroundTruthConfig(
            design=block_design(epoch_length=4, epochs_per_condition=2,
                                gap=2, dummy_trs=1),
            n_voxels=24, n_subjects=2,
            connectivity=ConnectivityConfig(n_informative=12),
        )
        grown = base.scaled(n_subjects=3)
        a = generate_design_dataset(base)
        b = generate_design_dataset(grown)
        for subject in a.subject_ids():
            assert (
                a.subject_data(subject).tobytes()
                == b.subject_data(subject).tobytes()
            )

    def test_epochs_match_design_table(self):
        cfg = GroundTruthConfig(
            design=event_design(epoch_length=4, epochs_per_condition=2,
                                gap=2, dummy_trs=1),
            n_voxels=24, n_subjects=2,
            connectivity=ConnectivityConfig(n_informative=12),
        )
        dataset = generate_design_dataset(cfg)
        assert dataset.epochs == design_epoch_table(
            cfg.design, cfg.n_subjects, cfg.seed + 1
        )

    def test_noise_and_coactivation_knobs_change_data(self):
        cfg = GroundTruthConfig(
            design=block_design(epoch_length=4, epochs_per_condition=2,
                                gap=2, dummy_trs=1),
            n_voxels=24, n_subjects=1,
            connectivity=ConnectivityConfig(n_informative=12),
        )
        clean = cfg.scaled(
            connectivity=cfg.connectivity.scaled(snr=0.0, sf=0.0)
        )
        noisy = cfg.scaled(
            connectivity=cfg.connectivity.scaled(snr=1.0, sf=0.0)
        )
        coact = cfg.scaled(
            connectivity=cfg.connectivity.scaled(snr=0.0, sf=1.0)
        )
        base = generate_design_dataset(clean).subject_data(0)
        assert not np.array_equal(
            base, generate_design_dataset(noisy).subject_data(0)
        )
        assert not np.array_equal(
            base, generate_design_dataset(coact).subject_data(0)
        )
