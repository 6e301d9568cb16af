"""Sparse stage-1/2 equivalence: engine CSR vs densify-then-threshold.

The acceptance bar of the sparse backend: for any tiling, the engine's
CSR output is **bitwise identical** to filtering the same engine's
tau=0 (fully dense) run through :func:`threshold_dense` — both sides
apply the same predicate to the same float32 values.  Against the dense
fused engine (one full-width gemm) values agree to float32 tolerance.
Edge cases pinned explicitly: tau=0 degenerate (dense CSR), all-pruned
(empty rows), and top-k ties at the k-th boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.correlation import correlate_batched, normalize_epoch_data
from repro.core.engine import DenseEmitter, run_engine
from repro.core.sparse import (
    CSREmitter,
    SparseCorrelationResult,
    threshold_dense,
    topk_block,
)
from repro.obs import Tracer, use_tracer


def _csr(z, assigned, eps, **emitter_kwargs):
    """The engine materializing CSR through ``CSREmitter(**emitter_kwargs)``."""
    return run_engine(z, assigned, eps, CSREmitter(**emitter_kwargs))


# (n_epochs, n_voxels, epoch_len, n_assigned, voxel_sweep, target_block,
#  epochs_per_subject) — same deliberately awkward shapes as the dense
# equivalence suite: ragged target blocks, V == 1, population-of-one.
SHAPES = [
    pytest.param(8, 40, 12, 10, 4, 16, 4, id="even"),
    pytest.param(6, 37, 9, 12, 5, 16, 3, id="ragged-targets"),
    pytest.param(6, 23, 7, 1, 4, 8, 3, id="single-voxel"),
    pytest.param(4, 19, 11, 6, 16, 64, 4, id="single-subject"),
    pytest.param(12, 53, 5, 17, 3, 10, 4, id="prime-everything"),
    pytest.param(3, 8, 6, 8, 1, 3, 1, id="epoch-population-of-one"),
]


def _problem(n_epochs, n_voxels, epoch_len, n_assigned, seed):
    rng = np.random.default_rng(seed)
    z = normalize_epoch_data(
        rng.standard_normal((n_epochs, n_voxels, epoch_len)).astype(np.float32)
    )
    assigned = rng.choice(n_voxels, size=n_assigned, replace=False)
    assigned.sort()
    return z, assigned


def _assert_bitwise(a: SparseCorrelationResult, b: SparseCorrelationResult):
    assert a.shape == b.shape
    assert a.indptr.tobytes() == b.indptr.tobytes()
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.data.tobytes() == b.data.tobytes()


class TestEngineMatchesDensifyThreshold:
    """The bitwise contract, over both modes and every hand-picked shape."""

    @pytest.mark.parametrize(
        "n_epochs,n_voxels,epoch_len,n_assigned,vs,tb,eps", SHAPES
    )
    @pytest.mark.parametrize("mode", ["tau", "top_k"])
    def test_bitwise_equal(
        self, n_epochs, n_voxels, epoch_len, n_assigned, vs, tb, eps, mode
    ):
        z, assigned = _problem(n_epochs, n_voxels, epoch_len, n_assigned, 3)
        dense_run, _ = _csr(
            z, assigned, eps, threshold=0.0, voxel_sweep=vs, target_block=tb
        )
        dense = dense_run.densify()
        kwargs = (
            {"threshold": 0.8} if mode == "tau" else {"top_k": n_voxels // 3 + 1}
        )
        engine, stats = _csr(
            z, assigned, eps, voxel_sweep=vs, target_block=tb, **kwargs
        )
        reference = threshold_dense(dense, **kwargs)
        _assert_bitwise(engine, reference)
        assert stats.nnz == engine.nnz
        assert stats.elements == n_assigned * n_epochs * n_voxels

    @pytest.mark.parametrize(
        "n_epochs,n_voxels,epoch_len,n_assigned,vs,tb,eps", SHAPES
    )
    def test_matches_dense_fused_engine_tolerance(
        self, n_epochs, n_voxels, epoch_len, n_assigned, vs, tb, eps
    ):
        """tau=0 densify vs the dense fused engine: float32 tolerance
        (the sparse engine gemms per tile, the dense engine per slab)."""
        z, assigned = _problem(n_epochs, n_voxels, epoch_len, n_assigned, 4)
        sparse_run, stats = _csr(
            z, assigned, eps, threshold=0.0, voxel_sweep=vs, target_block=tb
        )
        fused, _ = run_engine(
            z, assigned, eps, DenseEmitter(voxel_sweep=vs)
        )
        np.testing.assert_allclose(
            sparse_run.densify(), fused, atol=1e-6, rtol=0
        )
        assert stats.nnz == stats.elements  # tau=0 keeps everything


class TestEdgeCases:
    def test_tau_zero_degenerate_is_fully_dense(self):
        z, assigned = _problem(6, 21, 8, 5, 5)
        result, stats = _csr(
            z, assigned, 3, threshold=0.0, target_block=8
        )
        assert result.nnz == result.elements == 5 * 6 * 21
        assert stats.density == 1.0
        assert np.array_equal(
            result.indices.reshape(5 * 6, 21),
            np.tile(np.arange(21, dtype=np.int32), (30, 1)),
        )

    def test_all_pruned_empty_rows(self):
        z, assigned = _problem(6, 21, 8, 5, 6)
        result, stats = _csr(
            z, assigned, 3, threshold=99.0, target_block=8
        )
        assert result.nnz == 0
        assert stats.tiles_pruned == stats.n_tiles
        assert result.row_nnz.tolist() == [0] * 30
        cols, vals = result.row(0, 0)
        assert cols.size == vals.size == 0
        scipy_m = pytest.importorskip("scipy.sparse")
        assert result.to_scipy().nnz == 0
        assert np.array_equal(result.densify(), np.zeros(result.shape))

    def test_topk_ties_resolve_to_smaller_columns(self):
        """Forced ties at the k-th boundary: positional (stable argsort)
        semantics, validated against an explicit stable argsort."""
        block = np.array(
            [
                [0.5, -0.5, 0.5, 0.25, -0.5],
                [1.0, 1.0, 1.0, 1.0, 1.0],
                [0.0, 0.0, 0.0, 0.0, 0.0],
            ],
            dtype=np.float32,
        )
        rows, cols, vals = topk_block(block, 2)
        for r in range(block.shape[0]):
            mine = cols[rows == r]
            order = np.argsort(-np.abs(block[r]), kind="stable")[:2]
            assert sorted(mine.tolist()) == sorted(order.tolist())
        # Row 0: three 0.5-magnitude ties for two slots -> cols 0, 1.
        assert cols[rows == 0].tolist() == [0, 1]

    def test_topk_k_at_least_row_width_keeps_all(self):
        block = np.arange(12, dtype=np.float32).reshape(3, 4)
        rows, cols, vals = topk_block(block, 99)
        assert rows.size == 12
        assert np.array_equal(vals, block.reshape(-1))

    def test_mode_validation(self):
        z, assigned = _problem(4, 10, 6, 3, 7)
        with pytest.raises(ValueError, match="exactly one"):
            _csr(z, assigned, 2)
        with pytest.raises(ValueError, match="exactly one"):
            _csr(
                z, assigned, 2, threshold=0.5, top_k=3
            )
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            _csr(z, assigned, 2, threshold=-1.0)
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            _csr(
                z, assigned, 2, threshold=float("nan")
            )
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            _csr(z, assigned, 2, top_k=0)
        with pytest.raises(ValueError, match="divisible"):
            _csr(z, assigned, 3, threshold=0.5)

    def test_threshold_dense_validation(self):
        with pytest.raises(ValueError, match="3D"):
            threshold_dense(np.zeros((3, 4), dtype=np.float32), threshold=0.5)
        with pytest.raises(TypeError, match="float32"):
            threshold_dense(np.zeros((2, 3, 4)), threshold=0.5)

    def test_result_validation(self):
        with pytest.raises(ValueError, match="indptr"):
            SparseCorrelationResult(
                indptr=np.array([0, 1], dtype=np.int64),
                indices=np.array([0], dtype=np.int32),
                data=np.array([1.0], dtype=np.float32),
                shape=(2, 2, 4),
            )
        with pytest.raises(ValueError, match="out of range"):
            SparseCorrelationResult(
                indptr=np.array([0, 1, 1, 1, 1], dtype=np.int64),
                indices=np.array([7], dtype=np.int32),
                data=np.array([1.0], dtype=np.float32),
                shape=(2, 2, 4),
            )


# -- property-based sweep over random ragged shapes -----------------------


@st.composite
def _random_problem(draw):
    """Random shape x filter mode x tiling, mirroring the dense suite's
    strategy plus the filter dimension; includes tau=0 (degenerate
    dense) and tau large enough to prune everything."""
    eps = draw(st.integers(1, 4))
    n_subjects = draw(st.integers(1, 3))
    epoch_len = draw(st.integers(2, 10))
    n_voxels = draw(st.integers(1, 32))
    n_assigned = draw(st.integers(1, n_voxels))
    sweep = draw(st.one_of(st.none(), st.integers(1, 2 * n_assigned)))
    t_block = draw(st.one_of(st.none(), st.integers(1, 2 * n_voxels)))
    mode = draw(
        st.one_of(
            st.tuples(
                st.just("tau"),
                st.sampled_from([0.0, 0.3, 0.8, 1.5, 99.0]),
            ),
            st.tuples(st.just("top_k"), st.integers(1, n_voxels + 2)),
        )
    )
    seed = draw(st.integers(0, 2**16 - 1))
    return (
        eps * n_subjects, n_voxels, epoch_len, n_assigned,
        eps, sweep, t_block, mode, seed,
    )


class TestPropertyBasedEquivalence:
    """Random-shape bitwise equivalence, executed under an ambient
    tracer (tracing must never perturb the produced bits)."""

    @settings(max_examples=60, deadline=None)
    @given(_random_problem())
    def test_engine_bitwise_equals_densify_threshold(self, params):
        (n_epochs, n_voxels, epoch_len, n_assigned,
         eps, sweep, t_block, mode, seed) = params
        z, assigned = _problem(n_epochs, n_voxels, epoch_len, n_assigned, seed)
        kwargs = (
            {"threshold": mode[1]} if mode[0] == "tau" else {"top_k": mode[1]}
        )
        untraced, _ = _csr(
            z, assigned, eps, voxel_sweep=sweep, target_block=t_block, **kwargs
        )
        with use_tracer(Tracer()):
            dense_run, _ = _csr(
                z, assigned, eps,
                threshold=0.0, voxel_sweep=sweep, target_block=t_block,
            )
            reference = threshold_dense(dense_run.densify(), **kwargs)
            engine, stats = _csr(
                z, assigned, eps,
                voxel_sweep=sweep, target_block=t_block, **kwargs,
            )
        _assert_bitwise(engine, reference)
        _assert_bitwise(engine, untraced)
        if mode[0] == "top_k":
            assert stats.nnz == n_assigned * n_epochs * min(mode[1], n_voxels)

    @settings(
        max_examples=30,
        deadline=None,
        # The ill-conditioned-group assume below discards a seed-dependent
        # share of draws; that filtering is the point, not a slowdown bug.
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(_random_problem())
    def test_engine_matches_dense_fused_tolerance(self, params):
        (n_epochs, n_voxels, epoch_len, n_assigned,
         eps, sweep, t_block, _mode, seed) = params
        z, assigned = _problem(n_epochs, n_voxels, epoch_len, n_assigned, seed)
        if eps > 1:
            # Epoch normalization divides by the within-group std of the
            # Fisher values; near-tied groups amplify the engines' gemm
            # reassociation difference without bound, so discard draws
            # where any group is ill-conditioned.
            limit = 1.0 - 1e-6
            fisher = np.arctanh(
                np.clip(correlate_batched(z, assigned), -limit, limit)
                .astype(np.float64)
            )
            grouped = fisher.reshape(assigned.size, -1, eps, n_voxels)
            assume(float(grouped.std(axis=2).min()) > 0.05)
        sparse_run, _ = _csr(
            z, assigned, eps,
            threshold=0.0, voxel_sweep=sweep, target_block=t_block,
        )
        fused, _ = run_engine(
            z, assigned, eps, DenseEmitter(voxel_sweep=sweep)
        )
        np.testing.assert_allclose(
            sparse_run.densify(), fused, atol=1e-6, rtol=0
        )
