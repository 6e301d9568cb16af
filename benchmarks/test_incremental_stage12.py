"""Benchmark: incremental per-TR streaming vs full stage-1/2 recompute.

The streaming engine (:class:`~repro.core.incremental.IncrementalEmitter`)
folds each TR into running sums — an ``O(V*N)`` update whose cost does
not grow with the retained window — while the naive alternative a
pre-refactor feedback loop paid was re-running batch stage 1/2 over the
*whole* window on every refresh.  This bench streams an rtfmri-scale
session (V=20 selected voxels, N=2000 brain, T=12 TRs/epoch, 16-epoch
sliding window), interleaves incremental-step and full-recompute shots
TR by TR so both sample the same host noise, asserts the committed
>= 5x median-step speedup floor, and — timing on or off — checks the
tentpole bitwise claim: the streamed window equals the batch recompute
bit for bit after every epoch.

The stream's counts (TRs streamed, epochs completed and evicted, the
window) are machine-independent and pinned at equality, timing on or
off; timings go to ``benchmarks/results/incremental_stage12.txt`` only.
"""

import time

import numpy as np
import pytest

from repro.core.correlation import normalize_epoch_data
from repro.core.engine import DenseEmitter, run_engine
from repro.core.incremental import IncrementalEmitter

#: Committed floor: incremental median step must beat the full
#: window recompute by this (the ISSUE-7 acceptance criterion).
SPEEDUP_FLOOR = 5.0

#: rtfmri-scale streaming geometry: a trained classifier's top-k voxels
#: against a small online brain, scanner epochs of 12 TRs, and a
#: 16-epoch sliding window (2 x the default training prefix).
V, N, T, WINDOW = 20, 2_000, 12, 16

#: Warm-up epochs streamed before timing starts (fills the window so
#: the full-recompute comparator pays its steady-state cost).
WARMUP_EPOCHS = WINDOW

#: Epochs streamed during the timed phase.
TIMED_EPOCHS = 3


@pytest.fixture()
def timing_enabled(request):
    """False under --benchmark-disable (the CI equivalence smoke)."""
    return not request.config.getoption("benchmark_disable", False)


def _epoch(rng):
    return rng.standard_normal((N, T)).astype(np.float32)


def _batch_recompute(retained, assigned):
    """The naive per-TR refresh: batch stage 1/2 over the window."""
    z = normalize_epoch_data(np.stack(retained))
    out, _ = run_engine(z, assigned, len(retained), DenseEmitter())
    return out


class TestIncrementalStage12:
    def test_incremental_beats_full_recompute_5x(
        self, timing_enabled, save_table
    ):
        rng = np.random.default_rng(2026)
        assigned = np.arange(V, dtype=np.int64)
        emitter = IncrementalEmitter(assigned, N, window_epochs=WINDOW)
        partial_buf = np.empty((V, N), dtype=np.float32)
        retained: list[np.ndarray] = []

        def stream_epoch(window, step_shots=None, full_shots=None):
            for t in range(T):
                t0 = time.perf_counter()
                emitter.push_tr(window[:, t])
                emitter.partial_correlations(out=partial_buf)
                if step_shots is not None:
                    step_shots.append(time.perf_counter() - t0)
                if full_shots is not None:
                    # Interleaved comparator shot: same TR, same noise
                    # window, the full batch recompute of the retained
                    # epochs the naive loop would redo here.
                    t0 = time.perf_counter()
                    _batch_recompute(retained, assigned)
                    full_shots.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            emitter.complete_epoch()
            boundary = time.perf_counter() - t0
            retained.append(window)
            if len(retained) > WINDOW:
                retained.pop(0)
            return boundary

        for _ in range(WARMUP_EPOCHS):
            stream_epoch(_epoch(rng))

        # Bitwise claim at steady state: the streamed sliding window is
        # the batch recompute, bit for bit (checked timing on or off).
        np.testing.assert_array_equal(
            emitter.normalized(), _batch_recompute(retained, assigned)
        )
        assert emitter.window_size == WINDOW
        assert emitter.epochs_evicted == WARMUP_EPOCHS - WINDOW

        step_shots: list[float] = []
        full_shots: list[float] = []
        boundary_shots: list[float] = []
        for _ in range(TIMED_EPOCHS):
            boundary_shots.append(
                stream_epoch(_epoch(rng), step_shots, full_shots)
            )
        np.testing.assert_array_equal(
            emitter.normalized(), _batch_recompute(retained, assigned)
        )
        assert (
            emitter.trs_seen, emitter.epochs_completed,
            emitter.epochs_evicted, emitter.window_size,
        ) == (228, 19, 3, 16)

        if not timing_enabled:
            # --benchmark-disable (CI smoke): correctness checked above.
            return

        median_step = float(np.median(step_shots))
        p99_step = float(np.percentile(step_shots, 99.0))
        median_full = float(np.median(full_shots))
        median_boundary = float(np.median(boundary_shots))
        speedup = median_full / median_step
        assert speedup >= SPEEDUP_FLOOR, (
            f"incremental step only {speedup:.2f}x over full recompute "
            f"(floor {SPEEDUP_FLOOR}x)"
        )
        save_table(
            "incremental_stage12",
            f"incremental stage 1/2: {speedup:.1f}x over full recompute "
            f"({median_full * 1e3:.2f} ms -> {median_step * 1e3:.3f} ms "
            f"median step, p99 {p99_step * 1e3:.3f} ms, boundary "
            f"{median_boundary * 1e3:.2f} ms), floor {SPEEDUP_FLOOR}x",
        )
