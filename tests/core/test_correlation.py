"""Tests for stage 1: epoch normalization and correlation computation."""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.core import engine, iter_blocks
from repro.core.correlation import (
    _normalize_epoch_data_numpy,
    correlate_baseline,
    correlate_batched,
    epoch_windows,
    normalize_epoch_data,
    windows_body,
)
from repro.core.engine import DenseEmitter, run_engine
from repro.core.normalization import normalize_separated

from .test_engine import BlockedDense, raw_blocks


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

    @pytest.mark.parametrize(
        "body",
        [normalize_epoch_data, _normalize_epoch_data_numpy],
        ids=["dispatch", "numpy"],
    )
    @pytest.mark.parametrize("value", [5.0, 1000.1, 123.456])
    def test_constant_voxel_zeroed(self, value, body):
        """``t`` equal values map to zeros in either body, also where
        their float32 mean does not round back to the value (1000.1 and
        123.456 at t = 12), which left ulps that scaled to +-1/sqrt(t)."""
        s = stack(2, 3, 12)
        s[:, 1, :] = value
        z = body(s)
        np.testing.assert_array_equal(z[:, 1, :], 0.0)
        assert not np.signbit(z[:, 1, :]).any()

    @pytest.mark.parametrize(
        "body",
        [normalize_epoch_data, _normalize_epoch_data_numpy],
        ids=["dispatch", "numpy"],
    )
    def test_non_finite_row_is_not_constant(self, body):
        """Equal Infs are no constant: the row keeps its NaNs."""
        s = stack(1, 3, 12)
        s[0, 1, :] = np.inf
        with np.errstate(invalid="ignore"):
            z = body(s)
        assert np.isnan(z[0, 1, :]).all()

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


# ---------------------------------------------------------------------------
# Two bodies, one answer: the compiled equation-2 pass and the numpy body
# ---------------------------------------------------------------------------

def test_native_windows_built_where_a_compiler_is():
    if shutil.which(native.COMPILER) is None:
        pytest.skip("no compiler: the numpy body is the only body")
    assert native.solver().normalize_windows
    assert windows_body(12) == "native"
    # numpy splits a row of more than 128 values; its body takes those.
    assert windows_body(128) == "native" and windows_body(129) == "numpy"


def assert_same_bits(got, want):
    """Bit for bit, but for one freedom: a lane that differs must be NaN
    in both (which of two NaN payloads an operation propagates is the
    instruction's choice)."""
    assert got.shape == want.shape and got.dtype == want.dtype
    differ = got.view(np.uint32) != want.view(np.uint32)
    assert np.isnan(got[differ]).all() and np.isnan(want[differ]).all()


def numpy_norms(raw):
    """The numpy body's float32 root sum of squares of every row."""
    x = raw.astype(np.float32)
    x = x - x.mean(axis=2, keepdims=True)
    return np.sqrt((x * x).sum(axis=2))


WINDOW_SPECIALS = (
    "nan", "inf", "-inf", "negative-zero", "constant", "zero-row", "inf-row",
)
EPS_EDGES = (None, "below", "at", "above", "below64", "at64", "above64")


@settings(max_examples=300, deadline=None)
@given(
    e=st.integers(1, 3),
    n=st.integers(1, 40),
    t=st.one_of(st.integers(2, 40), st.sampled_from([1, 127, 128, 129, 200])),
    strided=st.booleans(),
    seed=st.integers(0, 10_000),
    specials=st.lists(st.sampled_from(WINDOW_SPECIALS), max_size=4),
    eps_edge=st.sampled_from(EPS_EDGES),
)
def test_native_windows_match_numpy_body_property(
    e, n, t, strided, seed, specials, eps_edge
):
    """Property: ``normalize_epoch_data`` is bitwise the numpy body —
    every ``t`` numpy sums in one pairwise block (below 8, 8, and every
    remainder mod 8), the numpy-only rows above 128, rows read at a
    stride from a wider array, magnitudes 1e-8 to 1e4, NaN, +-Inf, -0.0,
    constant, all-zero and all-Inf rows, and an ``eps`` an ulp below, at
    or above a row's norm (a Python float compares in float32, a float64
    scalar in float64)."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-8, 4, (e, n, 1))
    wide = (rng.standard_normal((e, n, t + 5)) * scale).astype(np.float32)
    raw = wide[:, :, 2 : 2 + t] if strided else np.ascontiguousarray(wide[:, :, :t])
    for special in specials:
        i, v, k = rng.integers(e), rng.integers(n), rng.integers(t)
        if special in ("nan", "inf", "-inf"):
            raw[i, v, k] = float(special)
        elif special == "negative-zero":
            raw[i, v, k] = -0.0
        elif special == "constant":
            raw[i, v, :] = raw[i, v, k]
        elif special == "inf-row":
            raw[i, v, :] = np.inf
        else:
            raw[i, v, :] = 0.0
    eps = 1e-12
    with np.errstate(invalid="ignore", over="ignore"):
        norm = numpy_norms(raw)[rng.integers(e), rng.integers(n)]
        if eps_edge is not None and np.isfinite(norm):
            down = np.nextafter(norm, np.float32(-np.inf))
            up = np.nextafter(norm, np.float32(np.inf))
            eps = {
                "below": float(down),
                "at": float(norm),
                "above": float(up),
                "below64": np.float64(norm) * (1 - 2**-40),
                "at64": np.float64(norm),
                "above64": np.float64(norm) * (1 + 2**-40),
            }[eps_edge]
        got = normalize_epoch_data(raw, eps)
        want = _normalize_epoch_data_numpy(raw, eps)
    assert_same_bits(got, want)


def test_one_nan_payload_normalizes_bit_for_bit():
    """NaNs of one payload (np.nan, as data carries it) leave no freedom:
    every lane, NaN or not, has the numpy body's bits."""
    raw = stack(3, 20, 12, seed=5)
    raw[0, 3, 4] = np.nan
    raw[1, 7, :] = np.nan
    raw[2, :, 0] = np.nan
    with np.errstate(invalid="ignore"):
        got = normalize_epoch_data(raw)
        want = _normalize_epoch_data_numpy(raw)
    assert got.tobytes() == want.tobytes()


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
        raw = raw_blocks(z, assigned, tb)
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
    @pytest.mark.parametrize("table", ["grouped", "ungrouped", "subset"])
    def test_gathered_equals_normalized_stack(self, tiny_dataset, table):
        """Each window read in place from its subject's BOLD gives the
        bits of normalizing the stacked copies: multi-subject, in table
        order or grouped, or a shuffled subset of epochs."""
        ds = tiny_dataset.grouped_by_subject() if table == "grouped" else tiny_dataset
        epochs = list(ds.epochs)
        if table == "subset":
            order = np.random.default_rng(3).permutation(len(epochs))[:11]
            epochs = [epochs[i] for i in order]
        assert len({e.subject for e in epochs}) > 1
        got = epoch_windows(ds, epochs)
        want = normalize_epoch_data(ds.epoch_stack(epochs))
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == _normalize_epoch_data_numpy(
            ds.epoch_stack(epochs)
        ).tobytes()

    def test_mixed_lengths_rejected(self, tiny_dataset):
        first, second = list(tiny_dataset.epochs)[:2]
        short = type(first)(
            subject=first.subject, start=first.start,
            length=first.length - 1, condition=first.condition,
        )
        with pytest.raises(ValueError, match="uniform epoch length"):
            epoch_windows(tiny_dataset, [short, second])

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
    blocked = raw_blocks(z, assigned, tb)
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
