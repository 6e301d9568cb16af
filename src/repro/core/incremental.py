"""Incremental (streaming) stage 1/2: per-TR updates over a sliding window.

The batch engine recomputes a task's full correlation volume from
scratch; a real-time pipeline receives one volume (TR) every couple of
seconds and cannot afford that.  :class:`IncrementalEmitter` is the
engine's streaming materialization:

* **Per TR** (:meth:`IncrementalEmitter.push_tr`) it maintains running
  sums — ``sum x``, ``sum x^2`` per target voxel and the rank-1 cross
  product ``S += x_assigned (x)ᵀ`` — so the in-progress epoch's Pearson
  correlations are available at any TR from
  :meth:`~IncrementalEmitter.partial_correlations` in ``O(V·N)`` work
  (one tile's worth per tile, never a gemm over the whole window).
* **Per completed epoch** (:meth:`IncrementalEmitter.complete_epoch`)
  the closed epoch's correlation plane is computed once through the
  tiled engine's whole-task gemm — the *same* batched-matmul kernel the
  offline path uses, which is what keeps the streaming state bitwise-
  equal to batch recompute — and appended to a sliding window of
  per-epoch planes, evicting the oldest beyond ``window_epochs``.
* **Stage 2 on demand** (:meth:`IncrementalEmitter.normalized`): the
  window stack is Fisher-transformed and z-scored by the engine's own
  normalizer, so at every TR the normalized window equals the block the
  engine materializes over the same epochs (``run_engine`` +
  ``DenseEmitter``, the oracles' form; an ``optimized`` run walks the
  same tiles into Gram partials with ``GramEmitter``) bit for bit
  (pinned by the hypothesis suite in ``tests/core/test_incremental.py``).

Epochs may be ragged: each plane remembers its own epoch length, and
nothing requires consecutive epochs to span the same number of TRs.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Sequence

import numpy as np

from .engine import EngineShape, TilePlan, run_engine
from .normalization import NormalizationWorkspace, fuse_normalize_tile

__all__ = ["IncrementalEmitter"]

#: arctanh clip bound shared with the offline Fisher transform.
_CLIP_LIMIT = np.float32(1.0 - 1e-6)

#: Initial TR capacity of the in-progress-epoch buffer; grows by
#: doubling, so steady state reallocates never (satellite: no per-TR
#: allocation churn).
_INITIAL_TR_CAPACITY = 32


class IncrementalEmitter:
    """Sliding-window streaming materialization of stage 1/2.

    Parameters
    ----------
    assigned:
        Task voxel rows (``V``), as for the batch engine.
    n_voxels:
        Brain size ``N`` every TR volume must match.
    window_epochs:
        Maximum completed epochs retained; ``None`` keeps everything.

    The emitter is also a :class:`~repro.core.engine.TileEmitter`: epoch
    planes are appended by running the engine *onto* the emitter
    (one raw tile — stage 2 is deferred to the window view), so
    the gemm producing each plane is the batch kernel itself.
    """

    #: Planes arrive raw; stage 2 runs over the window stack on demand.
    fused_normalization = False

    def __init__(
        self,
        assigned: np.ndarray,
        n_voxels: int,
        *,
        window_epochs: int | None = None,
    ) -> None:
        assigned = np.asarray(assigned, dtype=np.int64)
        if assigned.ndim != 1 or assigned.size == 0:
            raise ValueError("assigned must be a non-empty 1D index array")
        if n_voxels < 1:
            raise ValueError("n_voxels must be >= 1")
        if assigned.min() < 0 or assigned.max() >= n_voxels:
            raise IndexError("assigned voxel index out of range")
        if window_epochs is not None and window_epochs < 1:
            raise ValueError("window_epochs must be >= 1 (or None)")
        self._assigned = assigned
        self._n_voxels = int(n_voxels)
        self._window_epochs = window_epochs
        v, n = assigned.size, self._n_voxels

        #: Completed-epoch raw correlation planes, each ``(V, N)`` f32.
        self._window: Deque[np.ndarray] = deque()
        self._epoch_lengths: Deque[int] = deque()

        # In-progress epoch: raw TR columns plus float64 running sums.
        self._tr_buf = np.empty((n, _INITIAL_TR_CAPACITY), dtype=np.float32)
        self._t = 0
        self._sum = np.zeros(n, dtype=np.float64)
        self._sumsq = np.zeros(n, dtype=np.float64)
        self._cross = np.zeros((v, n), dtype=np.float64)
        # Preallocated per-TR scratch: the O(V·N) update allocates
        # nothing in steady state.
        self._x64 = np.empty(n, dtype=np.float64)
        self._xsq = np.empty(n, dtype=np.float64)
        self._xa = np.empty(v, dtype=np.float64)
        self._outer = np.empty((v, n), dtype=np.float64)
        self._num = np.empty((v, n), dtype=np.float64)
        self._var = np.empty(n, dtype=np.float64)
        self._vara = np.empty(v, dtype=np.float64)
        self._mask = np.empty((v, n), dtype=bool)
        self._norm_ws = NormalizationWorkspace()
        self._norm_shape: tuple[Any, ...] = ()

        #: Lifetime counters (introspection / RunContext).
        self.trs_seen = 0
        self.epochs_completed = 0
        self.epochs_evicted = 0

        # Per-engine-run state (TileEmitter protocol).
        self._run_out: np.ndarray | None = None
        self._run_epoch_length = 0

    # -- geometry ---------------------------------------------------------

    @property
    def n_assigned(self) -> int:
        return int(self._assigned.size)

    @property
    def n_voxels(self) -> int:
        return self._n_voxels

    @property
    def assigned(self) -> np.ndarray:
        return self._assigned

    @property
    def window_size(self) -> int:
        """Completed epochs currently retained."""
        return len(self._window)

    @property
    def epoch_lengths(self) -> List[int]:
        """Per-retained-epoch TR counts (ragged epochs allowed)."""
        return list(self._epoch_lengths)

    @property
    def trs_in_epoch(self) -> int:
        """TRs buffered in the in-progress epoch."""
        return self._t

    @property
    def latest_plane(self) -> np.ndarray:
        """Newest completed epoch's raw ``(V, N)`` correlation plane."""
        if not self._window:
            raise ValueError("no completed epochs in the window")
        return self._window[-1]

    # -- TileEmitter protocol (raw stage-1 planes) ------------------------

    def plan(self, shape: EngineShape) -> TilePlan:
        return TilePlan()  # one tile: the whole-task batch gemm

    def begin(self, shape: EngineShape, plan: TilePlan) -> None:
        if shape.n_voxels != self._n_voxels:
            raise ValueError(
                f"engine run over {shape.n_voxels} voxels does not match "
                f"emitter brain size {self._n_voxels}"
            )
        if shape.n_assigned != self._assigned.size:
            raise ValueError(
                f"engine run over {shape.n_assigned} assigned rows does not "
                f"match emitter task size {self._assigned.size}"
            )
        self._run_out = None
        self._run_epoch_length = shape.epoch_length

    def dense_out(self, shape: EngineShape) -> np.ndarray:
        self._run_out = np.empty(shape.dense_shape, dtype=np.float32)
        return self._run_out

    def emit(
        self, tile: np.ndarray, v0: int, v1: int, n0: int, n1: int
    ) -> None:
        pass  # planes are sliced from the run buffer in finalize

    def end_sweep(self, v0: int, v1: int, fragments: Sequence[Any]) -> None:
        pass

    def finalize(self) -> int:
        """Append the run's epoch planes to the window; returns its size."""
        assert self._run_out is not None
        for e in range(self._run_out.shape[1]):
            self._window.append(np.ascontiguousarray(self._run_out[:, e, :]))
            self._epoch_lengths.append(self._run_epoch_length)
            self.epochs_completed += 1
        self._run_out = None
        self._evict_overflow()
        return self.window_size

    # -- streaming API ----------------------------------------------------

    def push_tr(self, volume: np.ndarray) -> None:
        """Fold one TR volume ``(N,)`` into the in-progress epoch.

        ``O(V·N)``: one rank-1 update of the cross-product accumulator
        plus the per-voxel sum/sum-of-squares — no gemm, no pass over
        earlier TRs, no allocation (scratch is preallocated).
        """
        volume = np.asarray(volume)
        if volume.shape != (self._n_voxels,):
            raise ValueError(
                f"volume must have shape ({self._n_voxels},), got {volume.shape}"
            )
        if self._t == self._tr_buf.shape[1]:
            grown = np.empty(
                (self._n_voxels, 2 * self._tr_buf.shape[1]), dtype=np.float32
            )
            grown[:, : self._t] = self._tr_buf
            self._tr_buf = grown
        self._tr_buf[:, self._t] = volume

        x = self._x64
        np.copyto(x, self._tr_buf[:, self._t])
        self._sum += x
        np.multiply(x, x, out=self._xsq)
        self._sumsq += self._xsq
        np.take(x, self._assigned, out=self._xa)
        np.multiply(self._xa[:, None], x[None, :], out=self._outer)
        self._cross += self._outer
        self._t += 1
        self.trs_seen += 1

    def partial_correlations(
        self, out: np.ndarray | None = None
    ) -> np.ndarray | None:
        """Pearson ``(V, N)`` of the in-progress epoch, from running sums.

        ``r = (t·S − Σx_a Σx) / sqrt((t·Σx_a² − (Σx_a)²)(t·Σx² − (Σx)²))``
        evaluated entirely in the preallocated float64 scratch.  Returns
        ``None`` before two TRs (no variance yet); zero-variance voxels
        correlate as 0, as in the batch normalizer.
        """
        if self._t < 2:
            return None
        t = float(self._t)
        num, denom = self._num, self._outer
        np.multiply(self._cross, t, out=num)
        np.take(self._sum, self._assigned, out=self._xa)
        np.multiply(self._xa[:, None], self._sum[None, :], out=denom)
        num -= denom
        np.multiply(self._sum, self._sum, out=self._xsq)
        np.multiply(self._sumsq, t, out=self._var)
        self._var -= self._xsq
        np.clip(self._var, 0.0, None, out=self._var)
        np.take(self._var, self._assigned, out=self._vara)
        np.multiply(self._vara[:, None], self._var[None, :], out=denom)
        np.sqrt(denom, out=denom)
        np.less_equal(denom, 0.0, out=self._mask)
        denom[self._mask] = 1.0
        np.divide(num, denom, out=num)
        num[self._mask] = 0.0
        np.clip(num, -1.0, 1.0, out=num)
        if out is None:
            out = np.empty((self._assigned.size, self._n_voxels), np.float32)
        elif out.shape != num.shape or out.dtype != np.float32:
            raise ValueError("out must be float32 with shape (V, N)")
        np.copyto(out, num, casting="unsafe")
        return out

    def complete_epoch(self) -> np.ndarray | None:
        """Close the in-progress epoch and append its plane to the window.

        The plane is computed through the engine's whole-task batch gemm
        on the equation-2-normalized epoch window — identical bits to
        the corresponding slice of an offline batch run — then the TR
        buffer and running sums reset for the next epoch.  Returns the
        new plane (or ``None`` if no TRs were buffered).
        """
        if self._t == 0:
            return None
        from .correlation import normalize_epoch_data

        window = self._tr_buf[:, : self._t]
        z = normalize_epoch_data(window[None])  # (1, N, T)
        run_engine(z, self._assigned, 1, self)
        self._reset_epoch_state()
        return self._window[-1]

    def discard_partial_epoch(self) -> None:
        """Drop the in-progress TRs without completing an epoch."""
        self._reset_epoch_state()

    def append_epochs(self, z: np.ndarray) -> int:
        """Append already-normalized epoch windows ``(E, N, T)`` wholesale.

        The offline entry point (e.g. seeding a window from history):
        one engine run appends ``E`` planes.  Returns the window size.
        """
        z = np.asarray(z)
        if z.ndim != 3 or z.shape[1] != self._n_voxels:
            raise ValueError(
                f"z must be (epochs, {self._n_voxels}, time), got {z.shape}"
            )
        result: int = run_engine(z, self._assigned, 1, self)
        return result

    def evict_oldest(self, count: int = 1) -> int:
        """Drop the ``count`` oldest planes; returns how many were dropped."""
        if count < 0:
            raise ValueError("count must be >= 0")
        dropped = 0
        while self._window and dropped < count:
            self._window.popleft()
            self._epoch_lengths.popleft()
            dropped += 1
        self.epochs_evicted += dropped
        return dropped

    def normalized(self, epochs_per_subject: int | None = None) -> np.ndarray:
        """Stage-2-normalized ``(V, W, N)`` stack over the current window.

        Fisher transform + within-subject z-score by the engine's own
        normalizer; ``epochs_per_subject`` defaults to the whole window
        as one population (the online, single-subject case).  Bitwise-
        equal to the dense engine over the same epochs.
        """
        w = self.window_size
        if w == 0:
            raise ValueError("window is empty; no epochs to normalize")
        e_per = w if epochs_per_subject is None else epochs_per_subject
        if e_per < 1:
            raise ValueError("epochs_per_subject must be >= 1")
        if w % e_per:
            raise ValueError(
                f"window of {w} epochs not divisible by epochs_per_subject "
                f"{e_per}"
            )
        stack = np.empty(
            (self._assigned.size, w, self._n_voxels), dtype=np.float32
        )
        for e, plane in enumerate(self._window):
            stack[:, e, :] = plane
        if (stack.shape, e_per) != self._norm_shape:
            # The stack grows while the window fills: hold scratch for
            # the current shape only, reused once the window is full.
            self._norm_shape = (stack.shape, e_per)
            self._norm_ws = NormalizationWorkspace()
        fuse_normalize_tile(stack, e_per, workspace=self._norm_ws)
        return stack

    def fisher_features(self, plane: np.ndarray | None = None) -> np.ndarray:
        """Fisher-z feature row ``(1, V·N)`` from a raw plane.

        Defaults to the newest completed epoch.  Bitwise-equal to
        :meth:`repro.analysis.online.OnlineClassifier.features_for_epoch`
        on the same epoch window, because the plane came from the same
        gemm kernel and the clip/arctanh sequence is identical.
        """
        if plane is None:
            plane = self.latest_plane
        row = np.empty((1, plane.size), dtype=np.float32)
        flat = row.reshape(-1)
        np.clip(plane.reshape(-1), -_CLIP_LIMIT, _CLIP_LIMIT, out=flat)
        np.arctanh(flat, out=flat)
        return row

    def _reset_epoch_state(self) -> None:
        self._t = 0
        self._sum[:] = 0.0
        self._sumsq[:] = 0.0
        self._cross[:] = 0.0

    def _evict_overflow(self) -> None:
        if self._window_epochs is None:
            return
        excess = len(self._window) - self._window_epochs
        if excess > 0:
            self.evict_oldest(excess)

