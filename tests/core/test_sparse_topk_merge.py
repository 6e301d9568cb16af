"""Top-k through the tile seam: per-tile candidates + one exact merge.

``CSREmitter`` no longer holds whole output rows in top-k mode: ``emit``
keeps each tile's exact per-row top-``min(k, width)`` and ``end_sweep``
selects the top ``k`` of the candidates.  These tests drive that seam
directly (``begin -> emit... -> end_sweep -> finalize``, no engine) with
tie bands placed on tile boundaries, and compare against two
references: :func:`threshold_dense` (which shares the select body) and
an in-test oracle that is literally "first ``k`` of a stable
descending-``|value|`` argsort" and calls nothing from the module.
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import normalize_epoch_data
from repro.core.engine import EngineShape, TilePlan, run_engine
from repro.core.sparse import (
    SPARSE_SWEEP_ROWS,
    TOPK_TILE_MIN_WIDTH_IN_K,
    CSREmitter,
    SparseCorrelationResult,
    sparse_tile_plan,
    threshold_dense,
    topk_block,
)
from repro.data import presets


def _oracle_rows(flat: np.ndarray, k: int) -> list[np.ndarray]:
    """Per row: the first ``k`` of a stable descending-|value| argsort,
    reported in ascending column order."""
    return [
        np.sort(np.argsort(-np.abs(row), kind="stable")[:k]) for row in flat
    ]


def _oracle(dense: np.ndarray, k: int) -> SparseCorrelationResult:
    flat = dense.reshape(-1, dense.shape[2])
    kept = _oracle_rows(flat, k)
    return SparseCorrelationResult(
        indptr=np.concatenate([[0], np.cumsum([c.size for c in kept])]).astype(
            np.int64
        ),
        indices=np.concatenate(kept).astype(np.int32),
        data=np.concatenate([row[c] for row, c in zip(flat, kept)]),
        shape=dense.shape,
    )


def _drive(
    dense: np.ndarray, k: int, cuts: list[int], sweep: int | None = None
) -> SparseCorrelationResult:
    """Feed column blocks of a ``(V, E, N)`` array through the emitter
    the way the engine would: every tile of a sweep, ascending columns."""
    n_assigned, n_epochs, n_voxels = dense.shape
    sweep = sweep or n_assigned
    bounds = list(zip([0, *cuts], [*cuts, n_voxels]))
    emitter = CSREmitter(top_k=k)
    emitter.begin(
        EngineShape(n_assigned, n_epochs, n_voxels, 1, 1),
        TilePlan(
            voxel_sweep=sweep, target_block=max(n1 - n0 for n0, n1 in bounds)
        ),
    )
    for v0 in range(0, n_assigned, sweep):
        v1 = min(v0 + sweep, n_assigned)
        emitter.end_sweep(
            v0,
            v1,
            [
                emitter.emit(
                    np.ascontiguousarray(dense[v0:v1, :, n0:n1]), v0, v1, n0, n1
                )
                for n0, n1 in bounds
            ],
        )
    result, stats = emitter.finalize()
    assert stats.n_tiles == len(bounds) * -(-n_assigned // sweep)
    return result


def _assert_bitwise(a: SparseCorrelationResult, b: SparseCorrelationResult):
    assert a.shape == b.shape
    assert a.indptr.tobytes() == b.indptr.tobytes()
    assert a.indices.dtype == b.indices.dtype == np.int32
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.data.dtype == b.data.dtype == np.float32
    assert a.data.tobytes() == b.data.tobytes()


def _crafted() -> np.ndarray:
    """``(3, 2, 23)``: six rows whose k-th magnitude sits in a tie band
    laid across the cut points used below (8 and 16)."""
    n = 23
    rng = np.random.default_rng(19)
    rows = np.zeros((6, n), dtype=np.float32)
    # Row 0: two clear winners, then a 0.5 band over all three tiles.
    rows[0] = rng.uniform(0.01, 0.2, n)
    rows[0, [1, 15]] = [0.875, -0.875]
    rows[0, [3, 7, 8, 12, 19]] = [0.5, -0.5, 0.5, -0.5, 0.5]
    # Row 1: the band straddles only the first boundary (columns 6..9).
    rows[1] = rng.uniform(0.01, 0.2, n)
    rows[1, 20] = -0.75
    rows[1, 6:10] = [-0.5, 0.5, 0.5, -0.5]
    rows[2] = 1.0  # all equal
    rows[3] = 0.0  # all zero
    rows[4] = rng.standard_normal(n)  # no ties
    rows[5] = np.round(rng.standard_normal(n) * 2) / 2  # ties everywhere
    return rows.reshape(3, 2, n)


CUTS = [
    pytest.param([], id="one-tile"),
    pytest.param([8, 16], id="three-tiles"),
    pytest.param([5, 6, 7, 20], id="narrow-tiles"),
    pytest.param([22], id="ragged-last-column"),
    pytest.param(list(range(1, 23)), id="width-one-tiles"),
]


class TestSeamDirectly:
    @pytest.mark.parametrize("cuts", CUTS)
    @pytest.mark.parametrize("k", [1, 2, 4, 7, 9, 22, 23, 40])
    @pytest.mark.parametrize("sweep", [3, 2], ids=["one-sweep", "ragged-sweeps"])
    def test_crafted_tie_bands(self, k, cuts, sweep):
        dense = _crafted()
        result = _drive(dense, k, cuts, sweep)
        _assert_bitwise(result, threshold_dense(dense, top_k=k))
        _assert_bitwise(result, _oracle(dense, k))
        assert result.row_nnz.tolist() == [min(k, 23)] * 6

    def test_tie_band_resolves_to_smaller_columns_across_tiles(self):
        """The literal expectation behind the equalities above."""
        cols, vals = _drive(_crafted(), 4, [8, 16]).row(0, 0)
        assert cols.tolist() == [1, 3, 7, 15]
        assert vals.tolist() == [0.875, 0.5, -0.5, -0.875]

    def test_nan_never_ranks_and_nothing_raises(self):
        """NaN policy is ROADMAP 6(e); until then a NaN column costs
        each row one slot, as it did before the select moved."""
        dense = _crafted()
        dense[:, :, 7] = np.nan
        for cuts in ([], [8, 16]):
            result = _drive(dense, 4, cuts)
            assert not np.isnan(result.data).any()
            assert 7 not in result.indices
            assert 1 <= result.row_nnz.min() and result.row_nnz.max() <= 4
        _assert_bitwise(_drive(dense, 4, []), threshold_dense(dense, top_k=4))


@st.composite
def _quantised(draw):
    """A small ``(V, E, N)`` array of multiples of 0.25, so most rows
    tie at the k-th magnitude, with random cut points and ``k``."""
    n_assigned = draw(st.integers(1, 3))
    n_epochs = draw(st.integers(1, 3))
    n_voxels = draw(st.integers(1, 24))
    steps = draw(
        st.lists(
            st.integers(-8, 8),
            min_size=n_assigned * n_epochs * n_voxels,
            max_size=n_assigned * n_epochs * n_voxels,
        )
    )
    dense = (np.array(steps, dtype=np.float32) * 0.25).reshape(
        n_assigned, n_epochs, n_voxels
    )
    cuts = sorted(draw(st.sets(st.integers(1, n_voxels - 1)))) if n_voxels > 1 else []
    k = draw(st.integers(1, n_voxels + 2))
    sweep = draw(st.integers(1, n_assigned))
    return dense, k, cuts, sweep


class TestPropertyBased:
    @settings(max_examples=150, deadline=None)
    @given(_quantised())
    def test_seam_equals_both_references(self, case):
        dense, k, cuts, sweep = case
        result = _drive(dense, k, cuts, sweep)
        _assert_bitwise(result, threshold_dense(dense, top_k=k))
        _assert_bitwise(result, _oracle(dense, k))

    @settings(max_examples=150, deadline=None)
    @given(_quantised())
    def test_topk_block_equals_the_argsort_oracle(self, case):
        dense, k, _, _ = case
        flat = dense.reshape(-1, dense.shape[2])
        rows, cols, vals = topk_block(flat, k)
        kept = _oracle_rows(flat, k)
        assert rows.tolist() == [r for r, c in enumerate(kept) for _ in c]
        assert cols.tolist() == np.concatenate(kept).tolist()
        assert vals.tobytes() == flat[rows, cols].tobytes()


class TestThroughTheEngine:
    """Population-of-two z-scores are +-1: near-total ties through the
    real normalizer, across tilings and thread counts."""

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(23)
        # 30 columns: no tiling below leaves a one-column tail tile, the
        # one column split that may change gemm bits (engine docstring).
        z = normalize_epoch_data(
            rng.standard_normal((4, 30, 8)).astype(np.float32)
        )
        return z, np.array([0, 3, 4, 11, 17, 29])

    def test_identical_for_every_tiling_and_thread_count(self, problem):
        z, assigned = problem
        full, _ = run_engine(z, assigned, 2, CSREmitter(threshold=0.0))
        dense = full.densify()
        # Ties, really: 720 values, a few dozen distinct magnitudes.
        assert np.unique(np.abs(dense)).size * 10 < dense.size
        reference = _oracle(dense, 5)
        for threads in (1, 2, 4):
            for target_block in (2, 3, 7, 30):
                result, _ = run_engine(
                    z, assigned, 2,
                    CSREmitter(top_k=5, target_block=target_block),
                    threads=threads,
                )
                _assert_bitwise(result, reference)

    def test_select_buffers_are_one_pair_per_thread(self, problem):
        """More threads than cores and a 10 us switch interval: a pair
        in two tiles' hands would move bits, a lost pair would show as
        more pairs than threads."""
        z, assigned = problem
        threads = 4
        held: list[int] = []

        class Watched(CSREmitter):
            def end_sweep(self, v0, v1, fragments):
                held.append(len(self._scratch))
                super().end_sweep(v0, v1, fragments)

        reference, _ = run_engine(
            z, assigned, 2, CSREmitter(top_k=5, voxel_sweep=2), threads=1
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                result, _ = run_engine(
                    z, assigned, 2,
                    Watched(top_k=5, voxel_sweep=2, target_block=2),
                    threads=threads,
                )
                _assert_bitwise(result, reference)
        finally:
            sys.setswitchinterval(interval)
        assert held and 1 <= min(held) and max(held) <= threads

    def test_no_row_slab_is_held(self):
        """Peak traced memory stays below half of one ``(sweep, E, N)``
        row slab (plus the CSR): tiles are reduced as they are made."""
        n_assigned, n_epochs, n_voxels, k = 16, 12, 200_000, 100
        rng = np.random.default_rng(5)
        z = normalize_epoch_data(
            rng.standard_normal((n_epochs, n_voxels, 2)).astype(np.float32)
        )
        assigned = np.arange(n_assigned)
        tracemalloc.start()
        try:
            result, _ = run_engine(
                z, assigned, n_epochs, CSREmitter(top_k=k), threads=1
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slab = SPARSE_SWEEP_ROWS * n_epochs * n_voxels * 4
        csr = result.data.nbytes + result.indices.nbytes + result.indptr.nbytes
        assert result.nnz == n_assigned * n_epochs * k
        assert peak < slab // 2 + csr, f"peak {peak / 1e6:.1f} MB, slab {slab / 1e6:.1f} MB"


class TestPlan:
    @pytest.mark.parametrize("preset", ["FACE_SCENE", "ATTENTION", "SPARSE_100K"])
    @pytest.mark.parametrize("n_assigned", [1, 16, 120])
    def test_topk_tile_is_wide_enough_to_filter(self, preset, n_assigned):
        spec = getattr(presets, preset)
        k = spec.n_voxels // 100
        sweep, t_block = sparse_tile_plan(
            n_assigned, spec.n_epochs, spec.n_voxels, top_k=k
        )
        assert sweep == min(SPARSE_SWEEP_ROWS, n_assigned)
        assert t_block >= TOPK_TILE_MIN_WIDTH_IN_K * k or t_block == spec.n_voxels
        # The emitter plans with its own mode; tau mode is byte-sized.
        shape = EngineShape(
            n_assigned, spec.n_epochs, spec.n_voxels,
            spec.epoch_length, spec.epochs_per_subject,
        )
        assert CSREmitter(top_k=k).plan(shape) == TilePlan(sweep, t_block)
        assert CSREmitter(threshold=1.0).plan(shape) == TilePlan(
            *sparse_tile_plan(n_assigned, spec.n_epochs, spec.n_voxels)
        )

    def test_positional_signature_and_validation(self):
        sweep, t_block = sparse_tile_plan(90, 12, 34_470)
        assert sweep == SPARSE_SWEEP_ROWS == 16
        assert 1 <= t_block <= 34_470
        assert sparse_tile_plan(90, 12, 100, top_k=50) == (16, 100)
        with pytest.raises(ValueError, match=">= 1"):
            sparse_tile_plan(0, 12, 100)

    def test_begin_publishes_the_walked_tile(self):
        z = normalize_epoch_data(
            np.random.default_rng(2).standard_normal((4, 40, 6)).astype(np.float32)
        )
        emitter = CSREmitter(top_k=3, voxel_sweep=4, target_block=16)
        run_engine(z, np.arange(10), 2, emitter)
        assert (emitter.tile_rows, emitter.tile_cols) == (4, 16)
        default = CSREmitter(top_k=3)
        run_engine(z, np.arange(10), 2, default)
        assert (default.tile_rows, default.tile_cols) == (10, 40)
