"""Streaming-vs-batch equivalence for the incremental emitter.

The load-bearing claim of the streaming engine: at every epoch boundary
— through appends, sliding-window evictions, and ragged epoch lengths —
the incremental window is **bitwise** identical to an offline batch
recompute over the same epochs, because every plane comes out of the
same full-width gemm kernel and stage 2 runs through the same fused
normalizer.  The per-TR running-sum path (:meth:`partial_correlations`)
is a different factorization of Pearson's r, so it is checked to float
tolerance, not bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import correlate_baseline, normalize_epoch_data
from repro.core.engine import DenseEmitter, run_engine
from repro.core.incremental import IncrementalEmitter

N_VOXELS = 17
ASSIGNED = np.array([0, 3, 9, 16], dtype=np.int64)


def _random_epochs(rng, n_epochs, lengths):
    return [
        rng.standard_normal((N_VOXELS, t)).astype(np.float32) for t in lengths
    ]


def _batch_window(windows, e_per=None):
    """Offline recompute: normalized stage-1/2 over ``windows``."""
    length = min(w.shape[1] for w in windows)
    # Batch paths need equal epoch lengths; streaming does not.  Ragged
    # runs are compared per epoch against correlate_baseline instead.
    z = normalize_epoch_data(np.stack([w[:, :length] for w in windows]))
    out, _ = run_engine(
        z, ASSIGNED, len(windows) if e_per is None else e_per, DenseEmitter()
    )
    return out


def _stream_epoch(emitter, window):
    for t in range(window.shape[1]):
        emitter.push_tr(window[:, t])
    return emitter.complete_epoch()


class TestBitwiseEquality:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_epochs=st.integers(1, 6),
        epoch_len=st.integers(2, 9),
    )
    def test_append_stream_matches_batch(self, seed, n_epochs, epoch_len):
        """Uniform epochs pushed TR by TR == batch recompute, bitwise."""
        rng = np.random.default_rng(seed)
        windows = _random_epochs(rng, n_epochs, [epoch_len] * n_epochs)
        emitter = IncrementalEmitter(ASSIGNED, N_VOXELS)
        for w in windows:
            _stream_epoch(emitter, w)
            batch = _batch_window(windows[: emitter.window_size])
            assert np.array_equal(emitter.normalized(), batch)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        window_epochs=st.integers(1, 4),
        n_epochs=st.integers(2, 8),
        epoch_len=st.integers(2, 7),
    )
    def test_sliding_window_eviction_matches_batch(
        self, seed, window_epochs, n_epochs, epoch_len
    ):
        """After evictions the window == batch over the surviving epochs."""
        rng = np.random.default_rng(seed)
        windows = _random_epochs(rng, n_epochs, [epoch_len] * n_epochs)
        emitter = IncrementalEmitter(
            ASSIGNED, N_VOXELS, window_epochs=window_epochs
        )
        for i, w in enumerate(windows):
            _stream_epoch(emitter, w)
            kept = windows[max(0, i + 1 - window_epochs) : i + 1]
            assert emitter.window_size == len(kept)
            assert np.array_equal(
                emitter.normalized(), _batch_window(kept)
            )
        expected_evicted = max(0, n_epochs - window_epochs)
        assert emitter.epochs_evicted == expected_evicted

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(2, 11), min_size=1, max_size=6),
    )
    def test_ragged_epochs_match_per_epoch_baseline(self, seed, lengths):
        """Ragged streams: each plane == correlate_baseline on its window."""
        rng = np.random.default_rng(seed)
        windows = _random_epochs(rng, len(lengths), lengths)
        emitter = IncrementalEmitter(ASSIGNED, N_VOXELS)
        for w in windows:
            plane = _stream_epoch(emitter, w)
            ref = correlate_baseline(
                normalize_epoch_data(w[None]), ASSIGNED
            )[:, 0, :]
            assert np.array_equal(plane, ref)
        assert emitter.epoch_lengths == lengths

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_epochs=st.integers(2, 6),
        epoch_len=st.integers(2, 8),
    )
    def test_append_epochs_equals_streaming(self, seed, n_epochs, epoch_len):
        """Wholesale append == the same epochs pushed TR by TR."""
        rng = np.random.default_rng(seed)
        windows = _random_epochs(rng, n_epochs, [epoch_len] * n_epochs)
        streamed = IncrementalEmitter(ASSIGNED, N_VOXELS)
        for w in windows:
            _stream_epoch(streamed, w)
        bulk = IncrementalEmitter(ASSIGNED, N_VOXELS)
        length = min(w.shape[1] for w in windows)
        bulk.append_epochs(
            normalize_epoch_data(np.stack([w[:, :length] for w in windows]))
        )
        for a, b in zip(streamed._window, bulk._window):
            assert np.array_equal(a, b)


class TestPartialCorrelations:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        epoch_len=st.integers(2, 12),
    )
    def test_partial_matches_direct_recompute_every_tr(self, seed, epoch_len):
        """Running-sum Pearson == direct normalize+correlate at each TR."""
        rng = np.random.default_rng(seed)
        window = rng.standard_normal((N_VOXELS, epoch_len)).astype(np.float32)
        emitter = IncrementalEmitter(ASSIGNED, N_VOXELS)
        buf = np.empty((ASSIGNED.size, N_VOXELS), dtype=np.float32)
        assert emitter.partial_correlations() is None  # no TRs yet
        for t in range(epoch_len):
            emitter.push_tr(window[:, t])
            partial = emitter.partial_correlations(out=buf)
            if t == 0:
                assert partial is None  # a single TR has no variance
                continue
            direct = correlate_baseline(
                normalize_epoch_data(window[:, : t + 1][None]), ASSIGNED
            )[:, 0, :]
            np.testing.assert_allclose(partial, direct, atol=2e-5)

    def test_zero_variance_voxels_correlate_as_zero(self):
        emitter = IncrementalEmitter(ASSIGNED, N_VOXELS)
        rng = np.random.default_rng(0)
        window = rng.standard_normal((N_VOXELS, 5)).astype(np.float32)
        window[4] = 1.0  # constant target voxel
        window[ASSIGNED[1]] = 2.0  # constant assigned voxel
        for t in range(5):
            emitter.push_tr(window[:, t])
        partial = emitter.partial_correlations()
        assert partial is not None
        assert (partial[:, 4] == 0.0).all()
        assert (partial[1, :] == 0.0).all()

    def test_out_validation(self):
        emitter = IncrementalEmitter(ASSIGNED, N_VOXELS)
        rng = np.random.default_rng(0)
        for t in range(3):
            emitter.push_tr(
                rng.standard_normal(N_VOXELS).astype(np.float32)
            )
        with pytest.raises(ValueError, match="float32"):
            emitter.partial_correlations(
                out=np.empty((ASSIGNED.size, N_VOXELS), dtype=np.float64)
            )


class TestStreamingLifecycle:
    def test_discard_partial_epoch(self):
        rng = np.random.default_rng(1)
        emitter = IncrementalEmitter(ASSIGNED, N_VOXELS)
        for _ in range(3):
            emitter.push_tr(rng.standard_normal(N_VOXELS).astype(np.float32))
        emitter.discard_partial_epoch()
        assert emitter.trs_in_epoch == 0
        assert emitter.complete_epoch() is None  # nothing buffered
        # The discarded TRs must not leak into the next epoch.
        w = rng.standard_normal((N_VOXELS, 4)).astype(np.float32)
        plane = _stream_epoch(emitter, w)
        ref = correlate_baseline(
            normalize_epoch_data(w[None]), ASSIGNED
        )[:, 0, :]
        assert np.array_equal(plane, ref)

    def test_fisher_features_match_online_classifier(self):
        from repro.analysis.online import OnlineClassifier

        rng = np.random.default_rng(2)
        w = rng.standard_normal((N_VOXELS, 6)).astype(np.float32)
        emitter = IncrementalEmitter(ASSIGNED, N_VOXELS)
        plane = _stream_epoch(emitter, w)
        feats = emitter.fisher_features(plane)
        # features_for_epoch only reads self.voxels.
        clf = OnlineClassifier.__new__(OnlineClassifier)
        object.__setattr__(clf, "voxels", ASSIGNED)
        ref = clf.features_for_epoch(w)
        assert np.array_equal(feats, ref)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            IncrementalEmitter(np.array([], dtype=np.int64), 4)
        with pytest.raises(IndexError):
            IncrementalEmitter(np.array([9]), 4)
        with pytest.raises(ValueError, match="window_epochs"):
            IncrementalEmitter(np.array([0]), 4, window_epochs=0)
        emitter = IncrementalEmitter(ASSIGNED, N_VOXELS)
        with pytest.raises(ValueError, match="shape"):
            emitter.push_tr(np.zeros(N_VOXELS + 1, dtype=np.float32))
        with pytest.raises(ValueError, match="empty"):
            emitter.normalized()

    def test_tr_buffer_growth_preserves_history(self):
        """Epochs longer than the initial capacity stream correctly."""
        rng = np.random.default_rng(3)
        long_epoch = rng.standard_normal((N_VOXELS, 70)).astype(np.float32)
        emitter = IncrementalEmitter(ASSIGNED, N_VOXELS)
        plane = _stream_epoch(emitter, long_epoch)
        ref = correlate_baseline(
            normalize_epoch_data(long_epoch[None]), ASSIGNED
        )[:, 0, :]
        assert np.array_equal(plane, ref)

    def test_normalizer_scratch_stays_one_window_as_it_grows(self):
        """An unbounded window changes the stack shape every epoch; the
        emitter's long-lived workspace must hold scratch for the current
        shape only (not one ``(V, w, N)`` set per size it has seen), and
        a full sliding window must allocate nothing more."""
        rng = np.random.default_rng(4)
        v = ASSIGNED.size
        emitter = IncrementalEmitter(ASSIGNED, N_VOXELS)
        for w in range(1, 13):
            _stream_epoch(emitter, rng.standard_normal((N_VOXELS, 5)).astype(np.float32))
            emitter.normalized()
            # sq (V, 1, w, N) + mean and std (V, 1, 1, N), float32.
            assert emitter._norm_ws.nbytes == 4 * v * N_VOXELS * (w + 2)
        sliding = IncrementalEmitter(ASSIGNED, N_VOXELS, window_epochs=3)
        seen = []
        for _ in range(8):
            _stream_epoch(sliding, rng.standard_normal((N_VOXELS, 5)).astype(np.float32))
            sliding.normalized()
            seen.append(sliding._norm_ws)
        # w = 1, 2, then the full window: one workspace, one allocation.
        assert all(ws is seen[2] for ws in seen[2:])
        assert seen[2].allocations == 1
