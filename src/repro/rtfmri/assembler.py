"""Epoch assembly from a live volume stream.

Between the scanner and FCMA sits a small amount of bookkeeping: volumes
arrive one TR at a time, and the analysis operates on *complete labeled
epochs*.  :class:`EpochAssembler` buffers incoming volumes and emits an
``(n_voxels, epoch_len)`` window the moment the last volume of a labeled
epoch arrives — the unit of work both the online training phase and the
per-epoch feedback phase consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scanner import Volume

__all__ = ["CompletedEpoch", "EpochAssembler"]


@dataclass(frozen=True)
class CompletedEpoch:
    """A fully acquired labeled epoch."""

    #: Index among completed epochs (0-based, acquisition order).
    index: int
    #: Condition label of the epoch.
    condition: int
    #: Start time point of the epoch in the scan.
    start_t: int
    #: BOLD window, shape (n_voxels, epoch_len), float32.
    window: np.ndarray


class EpochAssembler:
    """Buffers volumes and emits complete labeled epochs.

    Contiguous runs of identically-labeled volumes form an epoch; the
    epoch is emitted when the label changes, a gap (unlabeled volume)
    arrives, or :meth:`flush` is called at end of scan.  Epochs shorter
    than ``min_length`` are discarded (scanner hiccups / partial
    blocks).
    """

    def __init__(self, min_length: int = 2):
        if min_length < 2:
            raise ValueError("min_length must be >= 2 (correlation needs it)")
        self._min_length = min_length
        self._current: list[np.ndarray] = []
        self._condition: int | None = None
        self._start_t: int | None = None
        self._emitted = 0
        #: Count of discarded too-short fragments (diagnostics).
        self.discarded = 0

    def _emit(self) -> CompletedEpoch | None:
        if self._condition is None:
            return None
        window = np.stack(self._current, axis=1)
        condition, start_t = self._condition, self._start_t
        self._current = []
        self._condition = None
        self._start_t = None
        if window.shape[1] < self._min_length:
            self.discarded += 1
            return None
        epoch = CompletedEpoch(
            index=self._emitted,
            condition=int(condition),
            start_t=int(start_t),  # type: ignore[arg-type]
            window=np.ascontiguousarray(window, dtype=np.float32),
        )
        self._emitted += 1
        return epoch

    def push(self, volume: Volume) -> CompletedEpoch | None:
        """Feed one volume; returns a finished epoch when one completes.

        Note the boundary semantics: a label *change* both closes the
        previous epoch and opens the new one with this volume.
        """
        if volume.condition is None:
            return self._emit()
        if self._condition is None:
            self._condition = volume.condition
            self._start_t = volume.t
            self._current = [volume.data]
            return None
        if volume.condition == self._condition:
            self._current.append(volume.data)
            return None
        finished = self._emit()
        self._condition = volume.condition
        self._start_t = volume.t
        self._current = [volume.data]
        return finished

    def flush(self) -> CompletedEpoch | None:
        """Close and emit any epoch in progress (end of scan)."""
        return self._emit()

    @property
    def epochs_emitted(self) -> int:
        """Number of complete epochs produced so far."""
        return self._emitted

    @property
    def in_progress(self) -> np.ndarray | None:
        """Volumes buffered in the open epoch, ``(n_voxels, t)``.

        ``None`` when no labeled epoch is being assembled.  The closed
        loop reads it when training ends, to count the open epoch's TRs
        the assembler has already absorbed as streamed.
        """
        if not self._current:
            return None
        return np.stack(self._current, axis=1)
