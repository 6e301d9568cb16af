"""Tests for the multi-problem (batched) SMO solver and its wrappers.

The load-bearing claim is *trajectory equivalence*: a problem solved in
a batch takes exactly the iterates it would take through the sequential
solver with the matching selector, so the batched stage 3 is a pure
performance change, not a numerics change.
"""

import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import native
from repro.svm import (
    AdaptiveSelector,
    FirstOrderSelector,
    PhiSVM,
    SecondOrderSelector,
    grouped_cross_validation,
    grouped_cross_validation_batch,
    solve_smo,
    solve_smo_batch,
)
from repro.svm.smo import _solve_smo_batch_numpy

#: Both bodies: the dispatching entry point (native on float32 stacks)
#: and the numpy body it falls back to.
BODIES = (solve_smo_batch, _solve_smo_batch_numpy)
FIELDS = ("alpha", "rho", "iterations", "converged", "objective", "gap")


def assert_same_bits(a, b):
    """Every field of two BatchSMOResults bitwise equal (NaN included)."""
    for field in FIELDS:
        x = np.atleast_1d(getattr(a, field))
        y = np.atleast_1d(getattr(b, field))
        assert x.dtype == y.dtype and x.shape == y.shape, field
        np.testing.assert_array_equal(
            x.view(np.uint8), y.view(np.uint8), err_msg=field
        )


def random_problem(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)).astype(np.float32)
    kernel = x @ x.T
    y = np.where(rng.uniform(size=n) > 0.5, 1, -1)
    if np.abs(y.sum()) == n:
        y[0] = -y[0]
    return kernel, y


def random_batch(b, n, d, seed):
    """B problems over shared labels (the FCMA stage-3 situation)."""
    kernels = np.stack(
        [random_problem(n, d, seed * 1000 + i)[0] for i in range(b)]
    )
    _, y = random_problem(n, d, seed)
    return np.ascontiguousarray(kernels, dtype=np.float32), y


SELECTORS = {
    "first": FirstOrderSelector,
    "second": SecondOrderSelector,
    "adaptive": AdaptiveSelector,
}


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("selection", ["first", "second", "adaptive"])
    def test_matches_sequential_bitwise(self, selection):
        kernels, y = random_batch(b=12, n=24, d=5, seed=3)
        batch = solve_smo_batch(kernels, y, c=1.0, tol=1e-3, selection=selection)
        for i in range(kernels.shape[0]):
            seq = solve_smo(
                kernels[i], y, c=1.0, tol=1e-3,
                selector=SELECTORS[selection](),
            )
            np.testing.assert_array_equal(batch.alpha[i], seq.alpha)
            assert batch.iterations[i] == seq.iterations
            assert bool(batch.converged[i]) == seq.converged
            assert batch.rho[i] == seq.rho
            np.testing.assert_allclose(
                batch.objective[i], seq.objective, rtol=1e-5, atol=1e-6
            )

    def test_per_problem_labels(self):
        kernels, _ = random_batch(b=6, n=20, d=4, seed=5)
        ys = np.stack(
            [random_problem(20, 4, 77 + i)[1] for i in range(6)]
        )
        batch = solve_smo_batch(kernels, ys, tol=1e-3, selection="adaptive")
        for i in range(6):
            seq = solve_smo(
                kernels[i], ys[i], tol=1e-3, selector=AdaptiveSelector()
            )
            np.testing.assert_array_equal(batch.alpha[i], seq.alpha)
            assert batch.iterations[i] == seq.iterations

    def test_early_convergers_freeze(self):
        """A trivially easy problem must not keep iterating (and must not
        perturb the hard problems sharing its batch)."""
        hard, y = random_batch(b=3, n=30, d=4, seed=9)
        easy = np.eye(30, dtype=np.float32) * 100.0  # converges in O(1) steps
        kernels = np.concatenate([easy[None], hard])
        batch = solve_smo_batch(kernels, y, tol=1e-3, selection="second")
        solo_easy = solve_smo(easy, y, tol=1e-3)
        assert batch.iterations[0] == solo_easy.iterations
        assert batch.iterations[0] < batch.iterations[1:].max()
        for i in range(3):
            seq = solve_smo(hard[i], y, tol=1e-3)
            np.testing.assert_array_equal(batch.alpha[i + 1], seq.alpha)

    def test_validation(self):
        kernels, y = random_batch(b=2, n=10, d=3, seed=1)
        with pytest.raises(ValueError, match="problems, n, n"):
            solve_smo_batch(kernels[0], y)
        with pytest.raises(ValueError, match="selection"):
            solve_smo_batch(kernels, y, selection="bogus")
        with pytest.raises(ValueError, match="-1 or"):
            solve_smo_batch(kernels, np.zeros(10))
        with pytest.raises(ValueError, match="shape"):
            solve_smo_batch(kernels, y[:-1])


@settings(max_examples=20, deadline=None)
@given(
    b=st.integers(1, 8),
    n=st.integers(4, 24),
    d=st.integers(1, 6),
    seed=st.integers(0, 10_000),
    c=st.sampled_from([0.5, 1.0, 5.0]),
)
def test_mixed_batch_matches_solo_property(b, n, d, seed, c):
    """Property: batch-solving B random problems of mixed difficulty is
    indistinguishable from solving each alone, through either body."""
    kernels, y = random_batch(b, n, d, seed)
    for solve in BODIES:
        batch = solve(kernels, y, c=c, tol=1e-3, selection="adaptive")
        assert batch.alpha.min() >= -1e-9 and batch.alpha.max() <= c + 1e-9
        for i in range(b):
            seq = solve_smo(
                kernels[i], y, c=c, tol=1e-3, selector=AdaptiveSelector()
            )
            np.testing.assert_array_equal(batch.alpha[i], seq.alpha)
            assert batch.iterations[i] == seq.iterations
            assert bool(batch.converged[i]) == seq.converged


class TestFitKernelBatch:
    def test_models_match_sequential(self):
        kernels, y = random_batch(b=5, n=20, d=4, seed=21)
        labels = np.where(y > 0, 1, 0)  # arbitrary binary labels
        svm = PhiSVM(tol=1e-4)
        models = svm.fit_kernel_batch(kernels, labels)
        assert len(models) == 5
        for i in range(5):
            solo = svm.fit_kernel(kernels[i], labels)
            sub = models.model(i)
            np.testing.assert_array_equal(sub.dual_coef, solo.dual_coef)
            assert sub.rho == solo.rho
            np.testing.assert_array_equal(
                sub.predict(kernels[i]), solo.predict(kernels[i])
            )

    def test_batch_accuracy_matches_per_model(self):
        kernels, y = random_batch(b=4, n=20, d=4, seed=22)
        labels = np.where(y > 0, 1, 0)
        models = PhiSVM().fit_kernel_batch(kernels, labels)
        acc = models.accuracy(kernels, labels)
        for i in range(4):
            assert acc[i] == models.model(i).accuracy(kernels[i], labels)

    def test_requires_stacked_square(self):
        kernels, y = random_batch(b=2, n=10, d=3, seed=23)
        with pytest.raises(ValueError):
            PhiSVM().fit_kernel_batch(kernels[:, :5, :], y)


class TestBatchedCrossValidation:
    def test_matches_sequential_cv(self):
        """Batched CV accuracies equal the per-problem sequential CV
        within float32 tolerance (trajectories are bitwise-equal, the
        accuracy reduction is float64)."""
        kernels, y = random_batch(b=6, n=24, d=5, seed=31)
        labels = np.where(y > 0, 1, 0)
        folds = np.repeat(np.arange(4), 6)
        svm = PhiSVM(tol=1e-4)
        batch = grouped_cross_validation_batch(svm, kernels, labels, folds)
        for i in range(6):
            seq = grouped_cross_validation(svm, kernels[i], labels, folds)
            np.testing.assert_allclose(
                batch.fold_accuracies[i], seq.fold_accuracies, atol=1e-7
            )
            np.testing.assert_array_equal(
                batch.fold_iterations[i], seq.fold_iterations
            )
            assert batch.problem(i).accuracy == pytest.approx(
                seq.accuracy, abs=1e-7
            )

    def test_degenerate_training_fold_zeroed(self):
        kernels, _ = random_batch(b=2, n=12, d=3, seed=32)
        labels = np.array([0] * 6 + [1] * 6)
        folds = np.array([0] * 6 + [1] * 6)  # both training sets one-class
        res = grouped_cross_validation_batch(PhiSVM(), kernels, labels, folds)
        np.testing.assert_array_equal(res.fold_accuracies, 0.0)
        np.testing.assert_array_equal(res.accuracies, 0.0)


# ---------------------------------------------------------------------------
# Ragged batches over voxels x folds: per-problem labels, fold stacking
# ---------------------------------------------------------------------------

def ladder_problem(n, d, seed, sep):
    """Two Gaussian classes ``sep`` apart with per-problem labels.

    ``sep`` sets the difficulty: >= 2 converges within the adaptive
    selector's first probe phases, 0 takes hundreds of iterations.
    """
    rng = np.random.default_rng(seed)
    y = np.where(rng.uniform(size=n) > 0.5, 1, -1)
    if np.abs(y.sum()) == n:
        y[0] = -y[0]
    x = rng.standard_normal((n, d)).astype(np.float32)
    x += np.float32(sep) * y[:, None].astype(np.float32)
    return x @ x.T, y


def ladder_batch(seps, n, d, seed):
    problems = [ladder_problem(n, d, seed * 100 + p, s) for p, s in enumerate(seps)]
    kernels = np.ascontiguousarray([k for k, _ in problems], dtype=np.float32)
    return kernels, np.stack([y for _, y in problems])


def assert_matches_alone(batch, kernels, ys, selection, **solver_args):
    """Every problem of ``batch`` equals its own solve, whoever shared it,
    and both bodies agree.

    Against the same batch through either body: every field bitwise.
    Against ``solve_smo``: alpha / iterations / converged / rho bitwise,
    the gap as the float32 the batch solver carries.  Against a batch of
    one through either body: every field bitwise.
    """
    for solve in BODIES:
        assert_same_bits(
            solve(kernels, ys, selection=selection, **solver_args), batch
        )
    for p in range(kernels.shape[0]):
        seq = solve_smo(
            kernels[p], ys[p], selector=SELECTORS[selection](), **solver_args
        )
        np.testing.assert_array_equal(batch.alpha[p], seq.alpha)
        assert batch.iterations[p] == seq.iterations
        assert bool(batch.converged[p]) == seq.converged
        assert np.float32(batch.gap[p]) == np.float32(seq.gap_history[-1])
        assert batch.rho[p] == seq.rho
        for solve in BODIES:
            one = solve(
                kernels[p : p + 1], ys[p : p + 1], selection=selection,
                **solver_args,
            )
            for field in FIELDS:
                np.testing.assert_array_equal(
                    getattr(batch, field)[p], getattr(one, field)[0],
                    err_msg=field,
                )


class TestRetirement:
    """Problems of one batch that finish (retire) hundreds of iterations
    apart: both bodies solve each problem to its end alone, and
    ``assert_matches_alone`` holds them to the same bits."""

    #: Half the batch converges inside the first probe phases, the rest
    #: spread over two more orders of magnitude.
    SEPS = (8.0, 8.0, 4.0, 4.0, 2.0, 2.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0)

    def test_retires_repeatedly_including_inside_a_probe_phase(self):
        kernels, ys = ladder_batch(self.SEPS, n=32, d=4, seed=7)
        batch = _solve_smo_batch_numpy(kernels, ys, c=5.0, selection="adaptive")
        assert batch.iterations.max() >= 10 * max(1, batch.iterations.min())
        assert np.unique(batch.iterations).size >= 3
        # The two probe phases are the first 16 iterations.
        assert batch.iterations.min() < 16
        assert batch.converged.all()
        assert_matches_alone(batch, kernels, ys, "adaptive", c=5.0)

    @pytest.mark.parametrize("selection", ["first", "second"])
    def test_fixed_heuristics_survive_retirement(self, selection):
        kernels, ys = ladder_batch(self.SEPS, n=24, d=3, seed=11)
        batch = _solve_smo_batch_numpy(kernels, ys, c=5.0, selection=selection)
        assert batch.iterations.max() >= 10 * max(1, batch.iterations.min())
        assert_matches_alone(batch, kernels, ys, selection, c=5.0)

    def test_max_iter_hit_while_others_are_retired(self):
        kernels, ys = ladder_batch(self.SEPS, n=32, d=4, seed=7)
        full = _solve_smo_batch_numpy(kernels, ys, c=5.0)
        # One iteration past the third slowest (it needs that last
        # selection to see its gap close); the two slowest overrun the cap.
        cap = int(np.sort(full.iterations)[-3]) + 1
        batch = _solve_smo_batch_numpy(kernels, ys, c=5.0, max_iter=cap)
        stragglers = full.iterations > cap
        assert stragglers.sum() == 2
        np.testing.assert_array_equal(batch.converged, ~stragglers)
        np.testing.assert_array_equal(batch.iterations[stragglers], cap)
        np.testing.assert_array_equal(
            batch.iterations[~stragglers], full.iterations[~stragglers]
        )
        assert cap == batch.iterations.max()
        assert_matches_alone(batch, kernels, ys, "adaptive", c=5.0, max_iter=cap)

    def test_batch_of_one_never_retires(self):
        kernels, ys = ladder_batch((0.0,), n=24, d=4, seed=3)
        batch = _solve_smo_batch_numpy(kernels, ys)
        assert batch.converged.all()
        assert_matches_alone(batch, kernels, ys, "adaptive")

    def test_all_converge_on_the_same_sweep(self):
        kernel, y = ladder_problem(24, 4, seed=5, sep=0.5)
        kernels = np.ascontiguousarray(np.stack([kernel] * 5), dtype=np.float32)
        ys = np.stack([y] * 5)
        batch = _solve_smo_batch_numpy(kernels, ys)
        assert np.unique(batch.iterations).size == 1
        assert_matches_alone(batch, kernels, ys, "adaptive")


@settings(max_examples=20, deadline=None)
@given(
    seps=st.lists(
        st.sampled_from([8.0, 4.0, 2.0, 1.0, 0.5, 0.0]), min_size=1, max_size=9
    ),
    n=st.integers(6, 24),
    d=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    c=st.sampled_from([0.5, 1.0, 5.0]),
    selection=st.sampled_from(["first", "second", "adaptive"]),
)
def test_ragged_difficulty_matches_alone_property(seps, n, d, seed, c, selection):
    """Property: per-problem labels and any convergence order leave
    every problem on its own trajectory."""
    kernels, ys = ladder_batch(seps, n, d, seed)
    batch = solve_smo_batch(kernels, ys, c=c, selection=selection)
    assert_matches_alone(batch, kernels, ys, selection, c=c)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    b=st.integers(1, 5),
    fold_sizes=st.lists(st.integers(2, 7), min_size=3, max_size=6),
    lone_class_fold=st.booleans(),
    d=st.integers(2, 5),
    seed=st.integers(0, 10_000),
)
def test_fold_stacked_cv_matches_per_voxel_property(
    b, fold_sizes, lone_class_fold, d, seed
):
    """Property: ragged folds (stacked by training size) and a fold whose
    training set is single-class score exactly as the per-voxel driver."""
    rng = np.random.default_rng(seed)
    folds = np.repeat(np.arange(len(fold_sizes)), fold_sizes)
    n = folds.size
    if lone_class_fold:
        # Class 1 lives in fold 0 only: fold 0 trains on one class.
        labels = np.where(folds == 0, 1, 0)
        labels[0] = 0
    else:
        labels = np.arange(n) % 2
    x = rng.standard_normal((b, n, d)).astype(np.float32)
    x[:, labels == 1] += np.float32(rng.uniform(0.0, 1.5))
    kernels = x @ x.transpose(0, 2, 1)
    svm = PhiSVM()
    batch = grouped_cross_validation_batch(svm, kernels, labels, folds)
    assert batch.fold_accuracies.shape == (b, len(fold_sizes))
    if lone_class_fold:
        np.testing.assert_array_equal(batch.fold_accuracies[:, 0], 0.0)
        np.testing.assert_array_equal(batch.fold_iterations[:, 0], 0)
    for v in range(b):
        seq = grouped_cross_validation(svm, kernels[v], labels, folds)
        np.testing.assert_array_equal(batch.fold_accuracies[v], seq.fold_accuracies)
        np.testing.assert_array_equal(batch.fold_iterations[v], seq.fold_iterations)
        np.testing.assert_array_equal(batch.fold_sizes, seq.fold_sizes)


class TestPerProblemLabels:
    def test_fit_kernel_batch_accepts_a_label_row_per_problem(self):
        kernels, ys = ladder_batch((1.0, 0.5, 0.0, 2.0), n=20, d=3, seed=9)
        labels = np.where(ys > 0, 7, 3)
        svm = PhiSVM()
        models = svm.fit_kernel_batch(kernels, labels)
        assert models.classes == (3, 7)
        acc = models.accuracy(kernels, labels)
        for p in range(4):
            solo = svm.fit_kernel(kernels[p], labels[p])
            np.testing.assert_array_equal(models.model(p).dual_coef, solo.dual_coef)
            assert acc[p] == models.model(p).accuracy(kernels[p], labels[p])

    def test_rejects_a_single_class_row(self):
        kernels, ys = ladder_batch((1.0, 1.0), n=10, d=3, seed=2)
        ys[1] = 1
        with pytest.raises(ValueError, match="both classes"):
            PhiSVM().fit_kernel_batch(kernels, ys)

    def test_accuracy_rejects_misshaped_labels(self):
        kernels, ys = ladder_batch((1.0, 1.0), n=10, d=3, seed=2)
        models = PhiSVM().fit_kernel_batch(kernels, ys)
        with pytest.raises(ValueError, match="labels must have shape"):
            models.accuracy(kernels, ys[:, :-1])


# ---------------------------------------------------------------------------
# Two bodies, one answer: the native problem solve and solve_smo's iteration
# ---------------------------------------------------------------------------

def test_native_body_is_built_where_a_compiler_is():
    if shutil.which(native.COMPILER) is None:
        pytest.skip("no compiler: the numpy body is the only body")
    assert native.solver() is not None


def stack_of(kind, p, n, d, rng):
    """A float32 ``(p, n, n)`` stack of one of the parity suite's kinds."""
    x = rng.standard_normal((p, n, d)).astype(np.float32)
    if kind == "duplicated":
        # Repeated samples: K_ii + K_jj - 2 K_ij == 0 for a repeated
        # pair, so the update divides by TAU.
        x[:, 1::2] = x[:, : n // 2]
    kernels = x @ x.transpose(0, 2, 1)
    if kind == "zeros":
        kernels[:] = 0.0
    if kind in ("nonfinite", "nonfinite-tail"):
        for _ in range(rng.integers(1, 4)):
            b, r, col = rng.integers(p), rng.integers(n), rng.integers(n)
            if kind == "nonfinite-tail":
                # The last sample: the tail lane of the native scans.
                r = n - 1
            value = rng.choice([np.nan, np.inf, -np.inf])
            kernels[b, r, col] = kernels[b, col, r] = value
    return np.ascontiguousarray(kernels, dtype=np.float32)


#: Problem sizes: small ones, and either side of the native scans'
#: 16-float vector blocks (a full block, a one-lane tail, a 15-lane tail).
SIZES = st.one_of(
    st.integers(2, 20),
    st.sampled_from([15, 16, 17, 31, 32, 33, 63, 64, 65]),
    st.integers(21, 80),
)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["psd", "duplicated", "zeros", "nonfinite", "nonfinite-tail"]),
    p=st.integers(1, 6),
    n=SIZES,
    d=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    shared_labels=st.booleans(),
    selection=st.sampled_from(["first", "second", "adaptive"]),
    c=st.sampled_from([0.5, 1.0, 5.0]),
    max_iter=st.sampled_from([None, 0, 1, 7, 40]),
    threads=st.sampled_from([1, 2]),
)
def test_native_body_matches_numpy_body_property(
    kind, p, n, d, seed, shared_labels, selection, c, max_iter, threads
):
    """Property: every BatchSMOResult field is bitwise the numpy body's,
    and alpha / iterations / converged / gap are ``solve_smo``'s on each
    problem alone — random PSD stacks, repeated samples (quad <= 0),
    all-zero kernels, NaN/Inf entries (the first NaN wins an argmax in
    both), also in the last sample, iteration caps that leave problems
    unconverged, sizes on and either side of the native scans' vector
    blocks, on one thread or two."""
    rng = np.random.default_rng(seed)
    kernels = stack_of(kind, p, n, d, rng)
    ys = np.where(rng.uniform(size=(p, n)) > 0.5, 1, -1)
    y = ys[0] if shared_labels else ys
    with mock.patch("repro.core.engine.thread_budget", return_value=threads):
        result = solve_smo_batch(
            kernels, y, c=c, max_iter=max_iter, selection=selection
        )
    assert_same_bits(
        result,
        _solve_smo_batch_numpy(
            kernels, y, c=c, max_iter=max_iter, selection=selection
        ),
    )
    for q in range(p):
        alone = solve_smo(
            kernels[q], ys[0] if shared_labels else ys[q], c=c,
            max_iter=max_iter, selector=SELECTORS[selection](),
        )
        np.testing.assert_array_equal(
            result.alpha[q].view(np.uint32), alone.alpha.view(np.uint32)
        )
        assert result.iterations[q] == alone.iterations
        assert bool(result.converged[q]) == alone.converged
        last = alone.gap_history[-1] if alone.gap_history.size else 0.0
        assert np.float32(result.gap[q]) == np.float32(last)


@pytest.mark.parametrize("selection", ["first", "second", "adaptive"])
def test_native_body_matches_numpy_body_on_a_large_problem(selection):
    """n = 1,100 is more samples than any fixed-size buffer in the native
    body would hold: its scratch rows come from the caller, sized by n."""
    rng = np.random.default_rng(1100)
    kernels = stack_of("psd", 2, 1100, 4, rng)
    y = np.where(rng.uniform(size=1100) > 0.5, 1, -1)
    with mock.patch("repro.core.engine.thread_budget", return_value=2):
        result = solve_smo_batch(kernels, y, max_iter=40, selection=selection)
    assert_same_bits(
        result,
        _solve_smo_batch_numpy(kernels, y, max_iter=40, selection=selection),
    )
    assert (result.iterations == 40).all()


@pytest.mark.parametrize("selection", ["first", "second", "adaptive"])
def test_a_signed_zero_tie_goes_to_the_first_index(selection):
    """Exact small-integer kernels drive gradients to exact zeros, and
    -y G is -0 where y = +1 but +0 where y = -1: here an extreme is a
    -0 / +0 tie.  The native scans must take its first index, as
    np.argmax does: a scan that ordered -0 below +0 would make the
    first-order solve here run 5 iterations to the numpy body's 2."""
    x = np.array([[-1, 0], [0, 1], [0, -1], [-1, 1]], dtype=np.float32)
    kernels = (x @ x.T)[None]
    y = np.array([1, 1, -1, -1])
    result = solve_smo_batch(kernels, y, max_iter=5, selection=selection)
    assert_same_bits(
        result,
        _solve_smo_batch_numpy(kernels, y, max_iter=5, selection=selection),
    )


def test_adaptive_solve_survives_an_infinite_kernel():
    """``solve_smo`` on a kernel with +-Inf entries gives the native
    body's answer; it used to raise ``math domain error`` when a probe
    phase ended at an infinite gap (``math.log(start / inf)``).  The
    float32 rate rule scores such a phase ``-inf``."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((15, 3)).astype(np.float32)
    kernel = x @ x.T
    kernel[4, 12] = kernel[12, 4] = np.inf
    kernel[9, 11] = kernel[11, 9] = -np.inf
    y = np.where(np.arange(15) % 2, 1, -1)
    alone = solve_smo(kernel, y, c=5.0, max_iter=40, selector=AdaptiveSelector())
    batch = solve_smo_batch(kernel[None], y, c=5.0, max_iter=40)
    np.testing.assert_array_equal(batch.alpha[0], alone.alpha)
    assert batch.iterations[0] == alone.iterations
    assert bool(batch.converged[0]) == alone.converged
    np.testing.assert_array_equal(batch.rho[0], alone.rho)
    with np.errstate(divide="ignore"):  # log(2 / inf) = log(0)
        rate = AdaptiveSelector()._rate(np.float32(2.0), np.float32(np.inf), 1.0)
    assert rate == -np.inf


def test_more_threads_than_cores_write_every_row_once():
    """Eight threads on a short switch interval share the output arrays
    (one row per problem, one writer per row): same bits as the numpy
    body."""
    kernels, ys = ladder_batch((8.0, 4.0, 2.0, 1.0, 0.5, 0.0) * 4, n=24, d=4, seed=12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch("repro.core.engine.thread_budget", return_value=8):
            result = solve_smo_batch(kernels, ys)
    finally:
        sys.setswitchinterval(interval)
    assert_same_bits(result, _solve_smo_batch_numpy(kernels, ys))


class TestFallback:
    """No compiler, or nowhere to put the library: the numpy body runs,
    with one warning and one attempt per process."""

    @pytest.fixture(params=["no-compiler", "unwritable-cache"])
    def unavailable(self, request, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "_lib", native._UNTRIED)
        if request.param == "no-compiler":
            monkeypatch.setattr(native, "COMPILER", "no-such-compiler")
        else:
            blocker = tmp_path / "a-file"
            blocker.write_text("")
            monkeypatch.setattr(native, "cache_dir", lambda: blocker / "repro")
        loads = []
        load = native._load

        def counted():
            loads.append(1)
            return load()

        monkeypatch.setattr(native, "_load", counted)
        return loads

    def test_same_bits_one_warning_one_attempt(self, unavailable, caplog):
        kernels, ys = ladder_batch((1.0, 0.5, 0.0, 2.0), n=20, d=3, seed=4)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            first = solve_smo_batch(kernels, ys)
            second = solve_smo_batch(kernels, ys)
        assert native.solver() is None
        assert_same_bits(first, _solve_smo_batch_numpy(kernels, ys))
        assert_same_bits(second, first)
        warned = [r for r in caplog.records if r.name == native.__name__]
        assert len(warned) == 1 and "numpy" in warned[0].getMessage()
        assert len(unavailable) == 1


@pytest.mark.skipif(shutil.which(native.COMPILER) is None, reason="no compiler")
def test_builds_on_first_use_into_the_cache_and_reuses_it(tmp_path):
    """Importing builds nothing; the first solve builds once; a later
    process loads the cached library without compiling."""
    src = Path(repro.__file__).resolve().parents[1]
    probe = (
        "import sys; from repro import native; "
        "print(sorted(p.name for p in native.cache_dir().glob('*')) "
        "if native.cache_dir().exists() else []); "
        "print(native.solver() is not None); "
        "print(sorted(p.name for p in native.cache_dir().glob('*')))"
    )
    env = {"HOME": str(tmp_path), "PYTHONPATH": str(src), "PATH": os.environ["PATH"]}

    def run():
        return subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, check=True,
        ).stdout.split("\n")

    first = run()
    (library,) = (tmp_path / ".cache" / "repro").glob("native-*.so")
    built_at = library.stat().st_mtime_ns
    second = run()
    assert first[:2] == ["[]", "True"]
    assert first[2] == second[0] == second[2] == repr([library.name])
    assert second[1] == "True"
    assert library.stat().st_mtime_ns == built_at
