"""Tests for stage 1: epoch normalization and correlation computation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import engine, iter_blocks
from repro.core.correlation import (
    correlate_baseline,
    correlate_batched,
    epoch_windows,
    normalize_epoch_data,
)
from repro.core.engine import DenseEmitter, run_engine
from repro.core.normalization import normalize_separated

from .test_engine import BlockedDense


def stack(n_epochs=4, n_voxels=12, t=10, seed=0):
    return np.random.default_rng(seed).standard_normal(
        (n_epochs, n_voxels, t)
    ).astype(np.float32)


class TestNormalizeEpochData:
    def test_mean_centered_unit_norm(self):
        z = normalize_epoch_data(stack())
        np.testing.assert_allclose(z.mean(axis=2), 0.0, atol=1e-6)
        np.testing.assert_allclose(
            (z * z).sum(axis=2), 1.0, atol=1e-5
        )

    def test_dot_product_is_pearson(self):
        """Equation 3: normalized dot product == np.corrcoef."""
        s = stack(1, 6, 20)
        z = normalize_epoch_data(s)
        ours = z[0] @ z[0].T
        ref = np.corrcoef(s[0].astype(np.float64))
        np.testing.assert_allclose(ours, ref, atol=1e-5)

    def test_constant_voxel_zeroed(self):
        s = stack(2, 3, 8)
        s[:, 1, :] = 5.0
        z = normalize_epoch_data(s)
        np.testing.assert_array_equal(z[:, 1, :], 0.0)

    def test_requires_3d(self):
        with pytest.raises(ValueError):
            normalize_epoch_data(np.zeros((3, 4)))

    def test_does_not_mutate_input(self):
        s = stack()
        before = s.copy()
        normalize_epoch_data(s)
        np.testing.assert_array_equal(s, before)

    def test_output_float32(self):
        assert normalize_epoch_data(stack().astype(np.float64)).dtype == np.float32


class TestCorrelateBaseline:
    def test_shape_voxel_major(self):
        z = normalize_epoch_data(stack(5, 20, 8))
        out = correlate_baseline(z, np.array([3, 7]))
        assert out.shape == (2, 5, 20)

    def test_self_correlation_is_one(self):
        z = normalize_epoch_data(stack(3, 10, 12, seed=1))
        assigned = np.array([0, 4, 9])
        out = correlate_baseline(z, assigned)
        for i, v in enumerate(assigned):
            np.testing.assert_allclose(out[i, :, v], 1.0, atol=1e-4)

    def test_values_in_range(self):
        z = normalize_epoch_data(stack(4, 15, 10))
        out = correlate_baseline(z, np.arange(15))
        assert out.min() >= -1.0 - 1e-5
        assert out.max() <= 1.0 + 1e-5

    def test_symmetry_across_assignments(self):
        """corr(i, j) computed from i's task equals j's task value."""
        z = normalize_epoch_data(stack(2, 8, 10, seed=2))
        out = correlate_baseline(z, np.arange(8))
        np.testing.assert_allclose(
            out[2, :, 5], out[5, :, 2], atol=1e-5
        )

    def test_matches_per_epoch_corrcoef(self):
        s = stack(3, 6, 15, seed=3)
        z = normalize_epoch_data(s)
        out = correlate_baseline(z, np.arange(6))
        for e in range(3):
            ref = np.corrcoef(s[e].astype(np.float64))
            np.testing.assert_allclose(out[:, e, :], ref, atol=1e-4)

    def test_validation(self):
        z = normalize_epoch_data(stack())
        with pytest.raises(ValueError, match="non-empty"):
            correlate_baseline(z, np.array([], dtype=np.int64))
        with pytest.raises(IndexError):
            correlate_baseline(z, np.array([99]))
        with pytest.raises(ValueError, match="epochs, voxels, time"):
            correlate_baseline(z[0], np.array([0]))


class TestCorrelateBlocked:
    """The tiled engine against the two whole-task kernels: any column
    tiling, at any planner voxel block, returns ``correlate_batched``'s
    bits and ``correlate_baseline``'s values."""

    @pytest.mark.parametrize("vb,tb,eb", [(1, 1, 1), (3, 5, 2), (16, 512, None), (2, 7, 4)])
    def test_identical_to_baseline(self, vb, tb, eb, monkeypatch):
        # 16 columns per planned row over 5 rows x 4 epochs x 4 bytes, so
        # the planner's voxel block ``vb`` cuts the 53-voxel brain into
        # 4, 2, 1 and 2 tiles; ``tb`` forces a column block outright.
        monkeypatch.setattr(engine, "DENSE_TILE_BYTES_PER_ROW", 16 * 80)
        z = normalize_epoch_data(stack(4, 53, 9, seed=4))
        assigned = np.array([0, 2, 5, 11, 12])
        raw, _ = run_engine(z, assigned, 1, BlockedDense(tb, fused=False))
        assert raw.tobytes() == correlate_batched(z, assigned).tobytes()
        # Up to 1-ulp differences: BLAS picks shape-dependent kernels.
        np.testing.assert_allclose(
            correlate_baseline(z, assigned), raw, atol=3e-7, rtol=0
        )
        eps = eb or z.shape[0]
        reference = normalize_separated(correlate_batched(z, assigned), eps)
        planned = DenseEmitter(voxel_sweep=vb)
        for emitter in (BlockedDense(tb), planned):
            fused, _ = run_engine(z, assigned, eps, emitter)
            assert fused.tobytes() == reference.tobytes()
        assert planned.tile_cols == min(16 * vb, 53)

    def test_out_buffer_reused(self):
        z = normalize_epoch_data(stack(2, 5, 8))
        out = np.empty((5, 2, 5), dtype=np.float32)
        res, _ = run_engine(z, np.arange(5), 2, DenseEmitter(out=out))
        assert res is out

    def test_out_wrong_shape(self):
        z = normalize_epoch_data(stack(2, 5, 8))
        bad = np.empty((1, 2, 3), np.float32)
        with pytest.raises(ValueError, match="out has shape"):
            run_engine(z, np.arange(5), 2, DenseEmitter(out=bad))

    def test_bad_blocks(self):
        with pytest.raises(ValueError):
            DenseEmitter(voxel_sweep=0)


class TestEpochWindows:
    def test_from_dataset(self, tiny_dataset):
        z = epoch_windows(tiny_dataset)
        assert z.shape == (
            tiny_dataset.n_epochs,
            tiny_dataset.n_voxels,
            tiny_dataset.epoch_length,
        )
        np.testing.assert_allclose(z.mean(axis=2), 0.0, atol=1e-5)

    def test_subset_of_epochs(self, tiny_dataset):
        some = list(tiny_dataset.epochs)[:3]
        z = epoch_windows(tiny_dataset, some)
        assert z.shape[0] == 3


class TestIterBlocks:
    def test_exact_cover(self):
        assert list(iter_blocks(10, 3)) == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_single_block(self):
        assert list(iter_blocks(4, 10)) == [(0, 4)]

    def test_empty(self):
        assert list(iter_blocks(0, 3)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            list(iter_blocks(-1, 3))
        with pytest.raises(ValueError):
            list(iter_blocks(3, 0))


@settings(max_examples=20, deadline=None)
@given(
    n_epochs=st.integers(1, 5),
    n_voxels=st.integers(2, 15),
    t=st.integers(3, 12),
    tb=st.integers(1, 10),
    seed=st.integers(0, 50),
)
def test_blocked_equals_baseline_property(n_epochs, n_voxels, t, tb, seed):
    """Property: any tiling computes the same correlations bitwise."""
    z = normalize_epoch_data(stack(n_epochs, n_voxels, t, seed))
    assigned = np.arange(n_voxels)
    blocked, _ = run_engine(z, assigned, 1, BlockedDense(tb, fused=False))
    assert blocked.tobytes() == correlate_batched(z, assigned).tobytes()
    np.testing.assert_allclose(
        correlate_baseline(z, assigned), blocked, atol=3e-7, rtol=0
    )


class TestCorrelateBatched:
    def test_matches_baseline(self):
        z = normalize_epoch_data(stack(5, 14, 9, seed=4))
        assigned = np.array([0, 2, 7, 13])
        np.testing.assert_allclose(
            correlate_batched(z, assigned),
            correlate_baseline(z, assigned),
            atol=3e-7, rtol=0,
        )

    def test_writes_into_out(self):
        z = normalize_epoch_data(stack(3, 8, 6, seed=5))
        assigned = np.arange(8)
        out = np.empty((8, 3, 8), dtype=np.float32)
        result = correlate_batched(z, assigned, out=out)
        assert result is out

    def test_voxel_major_layout(self):
        """out[v, e, :] is voxel v's correlation vector for epoch e."""
        z = normalize_epoch_data(stack(4, 6, 7, seed=6))
        assigned = np.array([1, 4])
        out = correlate_batched(z, assigned)
        for vi, v in enumerate(assigned):
            for e in range(4):
                np.testing.assert_allclose(
                    out[vi, e], z[e, v] @ z[e].T, atol=3e-7, rtol=0
                )


def _dense_engine(z, assigned, out):
    return run_engine(z, assigned, 1, DenseEmitter(out=out))


class TestOutValidation:
    #: Both writers of a caller-provided dense buffer share one check.
    WRITERS = {"correlate_batched": correlate_batched, "run_engine": _dense_engine}

    def _z(self):
        return normalize_epoch_data(stack(3, 8, 6, seed=7))

    @pytest.mark.parametrize("fn_name", sorted(WRITERS))
    def test_float64_out_rejected(self, fn_name):
        bad = np.empty((8, 3, 8), dtype=np.float64)
        with pytest.raises(TypeError, match="float32"):
            self.WRITERS[fn_name](self._z(), np.arange(8), out=bad)

    @pytest.mark.parametrize("fn_name", sorted(WRITERS))
    def test_non_contiguous_out_rejected(self, fn_name):
        bad = np.empty((8, 3, 16), dtype=np.float32)[:, :, ::2]
        with pytest.raises(TypeError, match="contiguous"):
            self.WRITERS[fn_name](self._z(), np.arange(8), out=bad)

    @pytest.mark.parametrize("fn_name", sorted(WRITERS))
    def test_wrong_shape_out_rejected(self, fn_name):
        bad = np.empty((8, 3, 5), dtype=np.float32)
        with pytest.raises(ValueError, match="out has shape"):
            self.WRITERS[fn_name](self._z(), np.arange(8), out=bad)

    def test_non_array_out_rejected(self):
        with pytest.raises(TypeError, match="numpy array"):
            correlate_batched(self._z(), np.arange(8), out=[])


class TestStage1InputCopies:
    """The input-side twin of the ``out`` validation above: a strided or
    float64 ``z`` is legal but silently buffer-copied by the batched
    gufunc; :func:`stage1_input_copies` is the predicate the execution
    layer feeds into the ``stage12_out_copies`` trace counter."""

    def _z(self):
        return normalize_epoch_data(stack(3, 8, 6, seed=13))

    def test_contiguous_float32_is_free(self):
        from repro.core.correlation import stage1_input_copies

        assert stage1_input_copies(self._z()) == 0

    def test_non_contiguous_costs_one_copy(self):
        from repro.core.correlation import stage1_input_copies

        z = self._z()
        padded = np.empty((3, 8, 12), dtype=np.float32)
        padded[:, :, :6] = z
        strided = padded[:, :, :6]
        assert not strided.flags.c_contiguous
        assert stage1_input_copies(strided) == 1

    def test_float64_costs_one_copy(self):
        from repro.core.correlation import stage1_input_copies

        assert stage1_input_copies(self._z().astype(np.float64)) == 1

    def test_non_contiguous_z_still_bitwise_equal(self):
        """The hidden copy must not change the produced bits — the
        counter reports a cost, not a correctness hazard."""
        z = self._z()
        padded = np.empty((3, 8, 12), dtype=np.float32)
        padded[:, :, :6] = z
        strided = padded[:, :, :6]
        reference = correlate_batched(z, np.arange(8))
        from_strided = correlate_batched(strided, np.arange(8))
        assert reference.tobytes() == from_strided.tobytes()
