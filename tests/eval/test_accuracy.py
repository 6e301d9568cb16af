"""Unit tests for the selection-accuracy metrics (repro.eval.accuracy).

ROC-AUC is pinned against a brute-force pairwise comparison (the
Mann-Whitney definition) under hypothesis-drawn rankings including
ties; average precision and the top-k hit rate against hand-computed
examples.  Everything here must be a pure function of the ranking —
the accuracy benchmark's equality check against ``BENCH_accuracy.json``
depends on it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import VoxelScores
from repro.eval import (
    SelectionScore,
    average_precision,
    roc_auc,
    score_selection,
    top_k_hit_rate,
)


def _brute_force_auc(values: np.ndarray, labels: np.ndarray) -> float:
    """Pairwise Mann-Whitney: P(pos > neg) + 0.5 * P(pos == neg)."""
    pos = values[labels]
    neg = values[~labels]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float(wins + 0.5 * ties) / (pos.size * neg.size)


class TestRocAuc:
    def test_perfect_ranking(self):
        values = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([True, True, False, False])
        assert roc_auc(values, labels) == 1.0

    def test_inverted_ranking(self):
        values = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([True, True, False, False])
        assert roc_auc(values, labels) == 0.0

    def test_all_tied_is_chance(self):
        values = np.full(6, 0.5)
        labels = np.array([True, False, True, False, False, False])
        assert roc_auc(values, labels) == 0.5

    def test_tie_order_irrelevant(self):
        values = np.array([0.7, 0.7, 0.7, 0.3])
        a = roc_auc(values, np.array([True, False, False, False]))
        b = roc_auc(values, np.array([False, False, True, False]))
        assert a == b

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_brute_force_with_ties(self, data):
        n = data.draw(st.integers(3, 24))
        # A coarse value grid forces frequent ties.
        values = np.array(
            data.draw(
                st.lists(
                    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                    min_size=n, max_size=n,
                )
            )
        )
        n_pos = data.draw(st.integers(1, n - 1))
        labels = np.zeros(n, dtype=bool)
        labels[data.draw(st.permutations(range(n)))[:n_pos]] = True
        assert roc_auc(values, labels) == pytest.approx(
            _brute_force_auc(values, labels), abs=1e-12
        )

    @pytest.mark.parametrize("labels", [
        np.array([True, True]), np.array([False, False]),
    ])
    def test_degenerate_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="positive and one negative"):
            roc_auc(np.array([0.1, 0.2]), labels)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="1D and equal length"):
            roc_auc(np.array([0.1, 0.2, 0.3]), np.array([True, False]))


class TestAveragePrecision:
    def test_perfect_ranking(self):
        values = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([True, True, False, False])
        assert average_precision(values, labels) == 1.0

    def test_hand_computed(self):
        # Ranking: pos, neg, pos, neg -> precisions at hits: 1/1, 2/3.
        values = np.array([0.9, 0.8, 0.7, 0.6])
        labels = np.array([True, False, True, False])
        assert average_precision(values, labels) == pytest.approx(
            (1.0 + 2.0 / 3.0) / 2.0
        )

    def test_ties_break_by_voxel_id(self):
        # Tied values rank by ascending index: [pos, neg] vs [neg, pos].
        values = np.array([0.5, 0.5])
        early = average_precision(values, np.array([True, False]))
        late = average_precision(values, np.array([False, True]))
        assert early == 1.0
        assert late == 0.5

    def test_bounded_by_auc_ordering(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(size=50)
        labels = np.zeros(50, dtype=bool)
        labels[rng.choice(50, size=10, replace=False)] = True
        ap = average_precision(values, labels)
        assert 0.0 < ap <= 1.0


class TestTopKHitRate:
    def _scores(self):
        return VoxelScores(
            voxels=np.arange(6),
            accuracies=np.array([0.9, 0.2, 0.8, 0.3, 0.7, 0.1]),
        )

    def test_exact_hits(self):
        # Top-3 by accuracy: voxels 0, 2, 4.
        truth = np.array([0, 2, 5])
        assert top_k_hit_rate(self._scores(), truth, 3) == pytest.approx(
            2.0 / 3.0
        )

    def test_k_larger_than_truth_normalizes_by_truth(self):
        truth = np.array([0, 2])
        assert top_k_hit_rate(self._scores(), truth, 6) == 1.0

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k"):
            top_k_hit_rate(self._scores(), np.array([0]), 0)


class TestScoreSelection:
    def _scores(self):
        accuracies = np.array([0.95, 0.9, 0.85, 0.4, 0.3, 0.2, 0.1, 0.05])
        return VoxelScores(voxels=np.arange(8), accuracies=accuracies)

    def test_perfect_selection(self):
        score = score_selection(self._scores(), np.array([0, 1, 2]))
        assert score.roc_auc == 1.0
        assert score.average_precision == 1.0
        assert score.top_k_hit_rate == 1.0
        assert score.top_k == 3
        assert score.n_informative == 3
        assert score.n_scored == 8

    def test_top_k_override(self):
        score = score_selection(self._scores(), np.array([0, 1, 2]), top_k=2)
        assert score.top_k == 2
        assert score.top_k_hit_rate == 1.0

    def test_unscored_planted_voxel_rejected(self):
        with pytest.raises(ValueError, match="never scored"):
            score_selection(self._scores(), np.array([0, 99]))

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            score_selection(self._scores(), np.array([], dtype=np.int64))

    def test_as_metrics_vocabulary(self):
        score = SelectionScore(
            roc_auc=0.9, average_precision=0.8, top_k_hit_rate=0.7,
            top_k=5, n_informative=5, n_scored=20,
        )
        metrics = score.as_metrics("acc.block.snr6.sf1.subj4.")
        assert metrics == {
            "acc.block.snr6.sf1.subj4.roc_auc": 0.9,
            "acc.block.snr6.sf1.subj4.average_precision": 0.8,
            "acc.block.snr6.sf1.subj4.top_k_hit_rate": 0.7,
        }
