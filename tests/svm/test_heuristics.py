"""Tests for working-set selection heuristics."""

import numpy as np
import pytest

from repro.svm import linear_kernel
from repro.svm.heuristics import (
    AdaptiveSelector,
    FirstOrderSelector,
    SecondOrderSelector,
    SelectionState,
    _first_order_pair,
)


def make_state(n=20, seed=0, c=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    kernel = linear_kernel(x.astype(np.float64))
    y = np.where(rng.uniform(size=n) > 0.5, 1.0, -1.0)
    alpha = np.zeros(n)
    grad = np.full(n, -1.0)
    return SelectionState(
        kernel_row=lambda i: kernel[i],
        y=y,
        alpha=alpha,
        grad=grad,
        diag=np.diagonal(kernel).copy(),
        c=c,
    )


class TestMasks:
    def test_initial_masks(self):
        state = make_state()
        up, low = state.masks()
        # At alpha = 0: I_up = positives, I_low = negatives.
        np.testing.assert_array_equal(up, state.y > 0)
        np.testing.assert_array_equal(low, state.y < 0)

    def test_saturated_alpha_moves_sets(self):
        state = make_state()
        state.alpha[:] = state.c  # all at upper bound
        up, low = state.masks()
        np.testing.assert_array_equal(up, state.y < 0)
        np.testing.assert_array_equal(low, state.y > 0)

    def test_free_alpha_in_both(self):
        state = make_state()
        state.alpha[:] = state.c / 2
        up, low = state.masks()
        assert up.all() and low.all()


class TestFirstOrderPair:
    def test_picks_maximal_violator(self):
        state = make_state(seed=1)
        i, j, gmax, gap = _first_order_pair(state)
        minus_yg = -(state.y * state.grad)
        up, low = state.masks()
        assert minus_yg[i] == minus_yg[up].max()
        assert minus_yg[j] == minus_yg[low].min()
        assert gap == pytest.approx(minus_yg[i] - minus_yg[j])

    def test_initial_gap_is_two(self):
        # At alpha=0, -y*G = y, so gap = 1 - (-1) = 2 for mixed labels.
        state = make_state(seed=2)
        _, _, _, gap = _first_order_pair(state)
        assert gap == pytest.approx(2.0)

    def test_single_class_returns_zero_gap(self):
        state = make_state()
        state.y[:] = 1.0
        state.alpha[:] = state.c  # I_up empty
        _, _, _, gap = _first_order_pair(state)
        assert gap == 0.0

    @pytest.mark.parametrize(
        "label, value", [(1, np.inf), (-1, -np.inf), (1, np.nan)]
    )
    def test_nonfinite_extreme_gives_zero_gap(self, label, value):
        """The compiled solve's rule: a non-finite extreme is optimal."""
        state = make_state(seed=2)
        k = np.flatnonzero(state.y == label)[0]
        state.grad[k] = -state.y[k] * value  # -y G = value: an extreme
        _, _, _, gap = _first_order_pair(state)
        assert gap == 0.0

    def test_gap_in_the_state_dtype(self):
        state = make_state(seed=9)
        state.y = state.y.astype(np.float32)
        state.grad = np.float32(-1.0) + np.float32(1e-3) * np.arange(
            state.y.size, dtype=np.float32
        )
        i, j, gmax, gap = _first_order_pair(state)
        minus_yg = -(state.y * state.grad)
        assert gap.dtype == np.float32 and gap == minus_yg[i] - minus_yg[j]


class TestSecondOrder:
    def test_same_i_as_first_order(self):
        state = make_state(seed=3)
        i1, _, _ = FirstOrderSelector().select(state)
        i2, _, _ = SecondOrderSelector().select(state)
        assert i1 == i2

    def test_j_is_eligible(self):
        state = make_state(seed=4)
        i, j, gap = SecondOrderSelector().select(state)
        minus_yg = -(state.y * state.grad)
        _, low = state.masks()
        assert low[j]
        assert minus_yg[j] < minus_yg[i]

    def test_relative_costs_ordered(self):
        assert SecondOrderSelector.relative_cost > FirstOrderSelector.relative_cost


class TestAdaptive:
    def test_phases_progress(self):
        sel = AdaptiveSelector(probe_iters=3, commit_iters=5)
        state = make_state(seed=5)
        for _ in range(6):  # both probes
            sel.select(state)
        assert sel.usage["first"] == 3
        assert sel.usage["second"] == 3
        assert sel.committed_heuristic in ("first", "second")

    def test_commit_uses_winner(self):
        sel = AdaptiveSelector(probe_iters=2, commit_iters=10)
        state = make_state(seed=6)
        for _ in range(4):
            sel.select(state)
        committed = sel.committed_heuristic
        before = dict(sel.usage)
        for _ in range(5):
            sel.select(state)
        gained = {k: sel.usage[k] - before[k] for k in before}
        assert gained[committed] == 5

    def test_reprobe_after_commit(self):
        sel = AdaptiveSelector(probe_iters=2, commit_iters=3)
        state = make_state(seed=7)
        for _ in range(2 + 2 + 3):
            sel.select(state)
        # next phase is probe_first again
        assert sel._phase == "probe_first"

    def test_rate_is_a_float32_log(self):
        sel = AdaptiveSelector(probe_iters=8)
        start, end = np.float32(2.0), np.float32(0.3)
        rate = sel._rate(start, end, 2.0)
        assert rate.dtype == np.float32
        assert rate == np.log(start / end) / np.float32(16.0)
        assert sel._rate(np.float32(0.0), end, 1.0) == np.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveSelector(probe_iters=1)
        with pytest.raises(ValueError):
            AdaptiveSelector(commit_iters=0)

    def test_custom_heuristics_injected(self):
        calls = {"n": 0}

        class Counting(FirstOrderSelector):
            def select(self, state):
                calls["n"] += 1
                return super().select(state)

        sel = AdaptiveSelector(probe_iters=2, commit_iters=2, first=Counting())
        state = make_state(seed=8)
        sel.select(state)
        sel.select(state)
        assert calls["n"] == 2
