"""Tests for stage 2: Fisher transform and within-subject z-scoring."""

import logging
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.core.correlation import (
    _normalize_epoch_data_numpy,
    correlate_baseline,
    correlate_batched,
    epoch_windows,
    normalize_epoch_data,
    windows_body,
)
from repro.core.engine import GramEmitter, run_engine
from repro.core.normalization import (
    _CLIP_EPS,
    _fuse_normalize_tile_numpy,
    fisher_z,
    fuse_normalize_tile,
    normalize_separated,
    normalizer_body,
    zscore_within_subject,
)
from repro.core.sparse import CSREmitter

from .test_engine import BlockedDense


def corr_array(v=4, subjects=3, e=4, n=10, seed=0):
    rng = np.random.default_rng(seed)
    return np.tanh(rng.standard_normal((v, subjects * e, n))).astype(np.float32)


class TestFisherZ:
    def test_matches_arctanh(self):
        r = np.array([0.0, 0.5, -0.5, 0.9], dtype=np.float32)
        np.testing.assert_allclose(fisher_z(r), np.arctanh(r), atol=1e-6)

    def test_exact_one_clipped_finite(self):
        out = fisher_z(np.array([1.0, -1.0], dtype=np.float32))
        assert np.isfinite(out).all()
        assert out[0] > 6.0  # arctanh(1 - 1e-6) ~ 7.25
        assert out[1] < -6.0

    def test_monotonic(self):
        r = np.linspace(-0.99, 0.99, 50, dtype=np.float32)
        z = fisher_z(r)
        assert (np.diff(z) > 0).all()

    def test_odd_function(self):
        r = np.array([0.3, 0.7], dtype=np.float32)
        np.testing.assert_allclose(fisher_z(-r), -fisher_z(r), atol=1e-6)

    def test_in_place(self):
        r = np.array([0.5], dtype=np.float32)
        out = fisher_z(r, out=r)
        assert out is r
        np.testing.assert_allclose(r, np.arctanh(0.5), atol=1e-6)


class TestZScore:
    def test_population_moments(self):
        z = corr_array()
        zscore_within_subject(z, epochs_per_subject=4)
        grouped = z.reshape(4, 3, 4, 10)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-5)
        np.testing.assert_allclose(grouped.std(axis=2), 1.0, atol=1e-4)

    def test_operates_in_place(self):
        z = corr_array()
        out = zscore_within_subject(z, 4)
        assert out is z

    def test_subjects_independent(self):
        """Changing one subject's data must not affect another's output."""
        a = corr_array(seed=1)
        b = a.copy()
        b[:, :4, :] += 100.0  # perturb subject 0 only
        zscore_within_subject(a, 4)
        zscore_within_subject(b, 4)
        np.testing.assert_allclose(a[:, 4:, :], b[:, 4:, :], atol=1e-5)

    def test_constant_population_zeroed(self):
        z = np.full((1, 4, 3), 0.7, dtype=np.float32)
        zscore_within_subject(z, 4)
        np.testing.assert_array_equal(z, 0.0)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError, match="divisible"):
            zscore_within_subject(corr_array(), 5)

    def test_requires_3d(self):
        with pytest.raises(ValueError):
            zscore_within_subject(np.zeros((2, 2), np.float32), 1)


class TestSeparated:
    def test_fisher_then_zscore(self):
        z = corr_array(seed=2)
        manual = np.arctanh(np.clip(z, -1 + 1e-6, 1 - 1e-6)).astype(np.float32)
        manual = manual.reshape(4, 3, 4, 10)
        mean = manual.mean(axis=2, keepdims=True)
        std = manual.std(axis=2, keepdims=True)
        expected = ((manual - mean) / std).reshape(4, 12, 10)
        out = normalize_separated(z.copy(), 4)
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_requires_float32(self):
        with pytest.raises(TypeError, match="float32"):
            normalize_separated(corr_array().astype(np.float64), 4)


class TestMerged:
    def test_merged_equals_separated(self):
        """The headline equivalence of optimization idea #2."""
        rng = np.random.default_rng(3)
        z = normalize_epoch_data(
            rng.standard_normal((12, 20, 8)).astype(np.float32)
        )
        assigned = np.arange(20)
        e = 4  # 3 subjects x 4 epochs

        base = correlate_baseline(z, assigned)
        separated = normalize_separated(base.copy(), e)

        merged, n_tiles = run_engine(z, assigned, e, BlockedDense(7))
        np.testing.assert_allclose(separated, merged, atol=1e-5)
        # Bitwise against the same gemm normalized in a separate pass.
        batched = normalize_separated(correlate_batched(z, assigned), e)
        assert merged.tobytes() == batched.tobytes()
        assert n_tiles == 3  # ceil(20 / 7) column tiles, all subjects each

    def test_misaligned_epoch_block_rejected(self):
        """A tile must hold whole normalization populations."""
        tile = np.zeros((2, 3, 5), dtype=np.float32)
        with pytest.raises(ValueError, match="divisible"):
            fuse_normalize_tile(tile, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            fuse_normalize_tile(np.zeros((2, 4, 5), dtype=np.float32), 0)


@settings(max_examples=20, deadline=None)
@given(
    v=st.integers(1, 4),
    subjects=st.integers(1, 4),
    e=st.integers(1, 5),
    n=st.integers(1, 8),
    seed=st.integers(0, 99),
)
def test_zscore_moments_property(v, subjects, e, n, seed):
    """Property: per-(voxel, subject, target) moments are (0, 1) unless
    the population is constant (then all-zero)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((v, subjects * e, n)).astype(np.float32)
    z = raw.copy()
    zscore_within_subject(z, e)
    grouped = z.reshape(v, subjects, e, n)
    # Only assert on well-conditioned populations: when the input spread
    # is tiny relative to the values, float32 cancellation legitimately
    # perturbs the output moments.
    raw_grouped = raw.reshape(v, subjects, e, n)
    spread = raw_grouped.std(axis=2)
    scale = np.abs(raw_grouped).max(axis=2) + 1.0
    ok = spread > 1e-3 * scale
    zeroed = np.abs(grouped).max(axis=2) < 1e-12
    check = ok & ~zeroed
    np.testing.assert_allclose(grouped.mean(axis=2)[check], 0.0, atol=1e-4)
    if e > 1:
        np.testing.assert_allclose(grouped.std(axis=2)[check], 1.0, atol=1e-3)


class TestFuseNormalizeTile:
    def test_bitwise_equal_to_separated(self):
        from repro.core.normalization import fuse_normalize_tile

        corr = corr_array(v=5, subjects=3, e=4, n=11, seed=3)
        ref = normalize_separated(corr.copy(), 4)
        fused = fuse_normalize_tile(corr.copy(), 4)
        assert fused.tobytes() == ref.tobytes()

    def test_bitwise_with_degenerate_population(self):
        """A zero-variance (voxel, subject, target) column must zero out
        with exactly the reference's bits (+0.0, not -0.0)."""
        from repro.core.normalization import fuse_normalize_tile

        corr = corr_array(v=3, subjects=2, e=4, n=7, seed=9)
        corr[1, 4:8, 2] = 0.73  # subject 1's population for (1, 2): constant
        ref = normalize_separated(corr.copy(), 4)
        fused = fuse_normalize_tile(corr.copy(), 4)
        assert fused.tobytes() == ref.tobytes()
        assert (fused[1, 4:8, 2] == 0.0).all()

    def test_workspace_reused_across_tiles(self):
        from repro.core.normalization import (
            NormalizationWorkspace,
            fuse_normalize_tile,
        )

        ws = NormalizationWorkspace()
        a = corr_array(v=4, subjects=2, e=3, n=6, seed=1)
        fuse_normalize_tile(a, 3, workspace=ws)
        first = ws.buffers(a.reshape(4, 2, 3, 6).shape)
        b = corr_array(v=4, subjects=2, e=3, n=6, seed=2)
        fuse_normalize_tile(b, 3, workspace=ws)
        second = ws.buffers(b.reshape(4, 2, 3, 6).shape)
        for x, y in zip(first, second):
            assert x.ctypes.data == y.ctypes.data  # same buffers
        assert ws.allocations == 1  # no reallocation

    def test_workspace_reallocates_on_shape_change(self):
        from repro.core.normalization import NormalizationWorkspace

        ws = NormalizationWorkspace()
        m1 = ws.buffers((2, 2, 3, 5))[0]
        m2 = ws.buffers((3, 2, 3, 5))[0]
        assert m1 is not m2
        assert not np.shares_memory(m1, m2)  # grown, not overrun
        assert ws.allocations == 2

    def test_workspace_retains_a_bounded_set_of_shapes(self):
        """One buffer per kind, grown to the largest shape asked for:
        a caller whose shape keeps changing does not pin every size it
        has ever used, and every smaller shape (the ragged tail of a
        walk) is a contiguous view of what is held."""
        from repro.core.normalization import NormalizationWorkspace

        ws = NormalizationWorkspace()
        sizes = []
        for w in range(1, 30):  # one population of w epochs, growing
            ws.buffers((4, 1, w, 50))
            ws.tile((4, w, 50))
            sizes.append(ws.nbytes)
        assert ws.allocations == 2 * 29
        # Retained: the largest shape of each kind, nothing older
        # (tile + sq at (4, 29, 50), mean + std at (4, 1, 50), float32).
        assert sizes[-1] == 2 * 4 * 29 * 50 * 4 + 2 * 4 * 50 * 4
        assert sizes == sorted(sizes)  # ...and never more than that
        # Any shape that fits is a view of the held buffers.
        held = ws.tile((4, 29, 50))
        for shape in ((4, 26, 50), (2, 29, 50), (4, 29, 49), (1, 1, 1)):
            view = ws.tile(shape)
            assert view.shape == shape and view.flags.c_contiguous
            assert view.ctypes.data == held.ctypes.data
        mean, std, sq = ws.buffers((3, 1, 7, 50))
        assert (mean.shape, std.shape, sq.shape) == (
            (3, 1, 1, 50), (3, 1, 1, 50), (3, 1, 7, 50)
        )
        assert not np.shares_memory(mean, std)
        assert ws.allocations == 2 * 29
        assert ws.nbytes == sizes[-1]
        # A larger element count grows the kind, once.
        ws.tile((4, 30, 50))
        ws.tile((4, 29, 50))
        assert ws.allocations == 2 * 29 + 1

    def test_in_place_and_returns_input(self):
        from repro.core.normalization import fuse_normalize_tile

        corr = corr_array()
        out = fuse_normalize_tile(corr, 4)
        assert out is corr

    def test_rejects_float64(self):
        from repro.core.normalization import fuse_normalize_tile

        with pytest.raises(TypeError, match="float32"):
            fuse_normalize_tile(np.zeros((2, 4, 3)), 4)

    def test_rejects_non_contiguous(self):
        from repro.core.normalization import fuse_normalize_tile

        corr = corr_array(v=4)[::2]
        with pytest.raises(TypeError, match="contiguous"):
            fuse_normalize_tile(corr, 4)

    def test_rejects_bad_shape_and_epochs(self):
        from repro.core.normalization import fuse_normalize_tile

        with pytest.raises(ValueError, match="V, M, N"):
            fuse_normalize_tile(np.zeros((2, 4), dtype=np.float32), 4)
        with pytest.raises(ValueError, match="divisible"):
            fuse_normalize_tile(np.zeros((2, 5, 3), dtype=np.float32), 4)
        with pytest.raises(ValueError, match=">= 1"):
            fuse_normalize_tile(np.zeros((2, 4, 3), dtype=np.float32), 0)


def _sweep_blocks(corr, e, rows, cols, workspace=None):
    """Sweep ``fuse_normalize_tile`` over ``rows x cols`` blocks of
    ``corr`` the way the engine walks a task: each block is normalized
    as its own contiguous scratch tile, then copied back."""
    from repro.core.normalization import fuse_normalize_tile

    v, _, n = corr.shape
    n_tiles = 0
    for v0 in range(0, v, rows):
        for n0 in range(0, n, cols):
            block = corr[v0 : v0 + rows, :, n0 : n0 + cols]
            tile = np.ascontiguousarray(block)
            block[...] = fuse_normalize_tile(tile, e, workspace=workspace)
            n_tiles += 1
    return n_tiles


class TestFusedNormalizeSweep:
    """The ``fused_normalize_sweep`` cases, ported onto the one
    normalizer left: sweeping ``fuse_normalize_tile`` over any row/column
    blocking equals the separated whole-array pass bit for bit."""

    def test_bitwise_equal_to_separated_any_sweep(self):
        corr = corr_array(v=7, subjects=3, e=4, n=11, seed=9)
        ref = normalize_separated(corr.copy(), 4)
        for rows, cols in [(1, 11), (2, 3), (7, 1), (7, 4), (50, 50), (3, 10)]:
            got = corr.copy()
            n_tiles = _sweep_blocks(got, 4, rows, cols)
            assert got.tobytes() == ref.tobytes()
            assert n_tiles == -(-7 // rows) * -(-11 // cols)

    def test_bitwise_with_degenerate_population(self):
        corr = corr_array(v=4, subjects=2, e=3, n=6, seed=10)
        corr[2, 3:6, 1] = 0.5  # constant within-subject population
        ref = normalize_separated(corr.copy(), 3)
        got = corr.copy()
        _sweep_blocks(got, 3, 2, 4)
        assert got.tobytes() == ref.tobytes()

    def test_workspace_reuse_across_calls(self):
        """Steady block + ragged tail: the tail is a view of the
        steady block's buffers, so one set is allocated, once."""
        from repro.core.normalization import NormalizationWorkspace

        ws = NormalizationWorkspace()
        corr = corr_array(v=6, subjects=2, e=3, n=8, seed=11)
        ref = normalize_separated(corr.copy(), 3)
        counts = []
        for _ in range(3):
            got = corr.copy()
            _sweep_blocks(got, 3, 6, 3, workspace=ws)  # widths 3, 3, 2
            assert got.tobytes() == ref.tobytes()
            counts.append(ws.allocations)
        assert counts == [1, 1, 1]

    def test_validation(self):
        """A column block of a wider array is not a tile: the engine
        must gemm into (or copy to) contiguous scratch first."""
        from repro.core.normalization import fuse_normalize_tile

        corr = corr_array(v=4, subjects=1, e=4, n=6)
        with pytest.raises(TypeError, match="contiguous"):
            fuse_normalize_tile(corr[:, :, 0:3], 4)
        with pytest.raises(ValueError, match="divisible"):
            fuse_normalize_tile(np.zeros((2, 5, 3), dtype=np.float32), 4)


# ---------------------------------------------------------------------------
# Two bodies, one answer: the compiled z-score tail and the numpy body
# ---------------------------------------------------------------------------

def assert_same_bits(got, want):
    """Bit for bit, but for one freedom: where a population holds NaNs
    of different payloads, which payload propagates may differ (the
    compiled sum may add a NaN pair in the other operand order), so a
    lane that differs must be NaN in both."""
    differ = got.view(np.uint32) != want.view(np.uint32)
    assert np.isnan(got[differ]).all() and np.isnan(want[differ]).all()


def numpy_deviation(tile, e):
    """The numpy body's float32 deviation of every population."""
    v, m, n = tile.shape
    limit = np.float32(1.0 - _CLIP_EPS)
    z = np.arctanh(np.clip(tile, -limit, limit)).reshape(v, m // e, e, n)
    mean = np.add.reduce(z, axis=2, keepdims=True) / np.float32(e)
    return np.sqrt(np.add.reduce(np.square(z - mean), axis=2) / np.float32(e))


def test_native_normalizer_is_built_where_a_compiler_is():
    if shutil.which(native.COMPILER) is None:
        pytest.skip("no compiler: the numpy body is the only body")
    assert native.solver() is not None
    assert normalizer_body() == "native"


SPECIALS = ("nan", "nan-payload", "negative-zero", "constant", "zero-population")


@settings(max_examples=300, deadline=None)
@given(
    v=st.integers(1, 3),
    s=st.integers(1, 3),
    e=st.sampled_from([1, 2, 3, 4, 12]),
    n=st.integers(1, 70),
    seed=st.integers(0, 10_000),
    specials=st.lists(st.sampled_from(SPECIALS), max_size=4),
    eps_edge=st.sampled_from([None, "below", "at", "above", "below64", "above64"]),
)
def test_native_body_matches_numpy_body_property(v, s, e, n, seed, specials, eps_edge):
    """Property: the tile is bitwise the numpy body's — values beyond
    +-1 (clipped), NaN (np.nan and random payloads, signalling ones
    included), -0.0, constant and all -0.0 populations, and an ``eps``
    within an ulp of a population's deviation (a Python float compares
    in float32, a float64 scalar in float64)."""
    rng = np.random.default_rng(seed)
    tile = rng.uniform(-1.5, 1.5, (v, s * e, n)).astype(np.float32)
    grouped = tile.reshape(v, s, e, n)
    for special in specials:
        i, j, k = rng.integers(v), rng.integers(s), rng.integers(n)
        if special == "nan":
            grouped[i, j, rng.integers(e), k] = np.nan
        elif special == "nan-payload":
            bits = 0x7F800000 | int(rng.integers(1, 2**22)) | int(rng.integers(2)) << 31
            grouped.view(np.uint32)[i, j, rng.integers(e), k] = bits
        elif special == "negative-zero":
            grouped[i, j, rng.integers(e), k] = -0.0
        elif special == "constant":
            grouped[i, j, :, k] = rng.uniform(-1.5, 1.5)
        else:
            grouped[i, j, :, k] = -0.0
    eps = 1e-12
    with np.errstate(invalid="ignore"):
        at = rng.integers(v), rng.integers(s), rng.integers(n)
        dev = numpy_deviation(tile, e)[at]
        if eps_edge is not None and np.isfinite(dev):
            eps = {
                "below": float(np.nextafter(dev, np.float32(-np.inf))),
                "at": float(dev),
                "above": float(np.nextafter(dev, np.float32(np.inf))),
                "below64": np.float64(dev) * (1 - 2**-40),
                "above64": np.float64(dev) * (1 + 2**-40),
            }[eps_edge]
        got = fuse_normalize_tile(tile.copy(), e, eps)
        want = _fuse_normalize_tile_numpy(tile.copy(), e, eps)
    assert_same_bits(got, want)


def test_one_nan_payload_propagates_bit_for_bit():
    """NaNs of one payload (np.nan, as data carries it) leave no freedom:
    every lane, NaN or not, has the numpy body's bits."""
    tile = corr_array(v=3, subjects=2, e=12, n=37, seed=4)
    tile[0, 2:5, 3] = np.nan
    tile[1, 13, :] = np.nan
    tile[2, :, 30] = np.nan
    got = fuse_normalize_tile(tile.copy(), 12)
    want = _fuse_normalize_tile_numpy(tile.copy(), 12)
    assert got.tobytes() == want.tobytes()


def test_one_column_tile_has_the_numpy_bits():
    """numpy sums a one-column tile's populations along their contiguous
    axis, pairwise from 8 epochs on; that tile takes the numpy body."""
    tile = corr_array(v=64, subjects=2, e=12, n=1, seed=8)
    got = fuse_normalize_tile(tile.copy(), 12)
    want = _fuse_normalize_tile_numpy(tile.copy(), 12)
    assert got.tobytes() == want.tobytes()


class TestEngineEitherBody:
    """``run_engine`` through each emitter, one thread or two, multi-tile
    walks: the same bits whichever normalizer body ran."""

    EMITTERS = {
        "dense": lambda: BlockedDense(8),
        "gram": GramEmitter,
        "csr": lambda: CSREmitter(top_k=5, target_block=8),
    }

    @staticmethod
    def _bytes(kind, result):
        if kind == "dense":
            return result[0].tobytes()
        if kind == "gram":
            return result.tobytes()
        csr = result[0]
        return csr.indptr.tobytes() + csr.indices.tobytes() + csr.data.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["dense", "gram", "csr"])
    def test_same_bits_with_either_body(
        self, kind, threads, small_gram_chunks, monkeypatch
    ):
        rng = np.random.default_rng(21)
        raw = rng.standard_normal((6, 37, 9)).astype(np.float32)
        raw[:, 5] = raw[:, 4]  # duplicated time courses: constant populations
        z = normalize_epoch_data(raw)
        assigned = np.array([0, 3, 4, 5, 11, 20, 36])
        make = self.EMITTERS[kind]

        def walk():
            result = run_engine(z, assigned, 3, make(), threads=threads)
            return self._bytes(kind, result)

        native_bits = walk()
        monkeypatch.setattr(native, "_lib", None)
        assert normalizer_body() == "numpy"
        assert walk() == native_bits


class TestFallback:
    """No compiler, or nowhere to put the library: the numpy body
    normalizes, with one warning and one attempt per process."""

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
        tile = corr_array(v=4, subjects=2, e=4, n=33, seed=6)
        tile[1, 0:4, 7] = 0.25  # a constant population
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            first = fuse_normalize_tile(tile.copy(), 4)
            second = fuse_normalize_tile(tile.copy(), 4)
        assert normalizer_body() == "numpy"
        assert first.tobytes() == _fuse_normalize_tile_numpy(tile.copy(), 4).tobytes()
        assert second.tobytes() == first.tobytes()
        warned = [r for r in caplog.records if r.name == native.__name__]
        assert len(warned) == 1 and "numpy" in warned[0].getMessage()
        assert len(unavailable) == 1

    def test_windows_same_bits_one_warning_one_attempt(
        self, unavailable, caplog, tiny_dataset
    ):
        """The equation-2 pass falls back with the z-score tail: the
        same library, so one warning and one attempt for both."""
        raw = tiny_dataset.epoch_stack()
        raw[:, 5, :] = 1000.1  # constant rows
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            first = normalize_epoch_data(raw)
            gathered = epoch_windows(tiny_dataset)
            fuse_normalize_tile(corr_array(), 4)
        assert windows_body(tiny_dataset.epoch_length) == "numpy"
        assert first.tobytes() == _normalize_epoch_data_numpy(raw).tobytes()
        assert not first[:, 5, :].any()
        assert gathered.tobytes() == _normalize_epoch_data_numpy(
            tiny_dataset.epoch_stack()
        ).tobytes()
        warned = [r for r in caplog.records if r.name == native.__name__]
        assert len(warned) == 1 and "numpy" in warned[0].getMessage()
        assert len(unavailable) == 1
