"""FCMA stage 2: within-subject normalization (Sections 3.1, 4.3).

Correlation coefficients are Fisher-transformed (equation 4) and then
z-scored within subject (equation 5): for each (voxel, target-voxel,
subject) triple, the population is that subject's ``E`` epoch values —
the "sub-column of E values" of Fig. 4.

Two execution strategies, bitwise identical:

* :func:`normalize_separated` — a standalone pass over the full
  correlation array (the baseline; re-reads everything from memory).
* :func:`fuse_normalize_tile` — the engine's merged path (optimization
  idea #2): the same arithmetic as ``normalize_separated`` (including
  degenerate populations), its z-score tail one compiled call per tile
  (the numpy body is the fallback and the oracle), with all scratch
  buffers owned by a reusable :class:`NormalizationWorkspace`.
  :func:`repro.core.engine.run_engine` calls it once per L2-sized tile,
  right after the tile's gemm, while the tile is still cache-resident.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .. import native

__all__ = [
    "fisher_z",
    "zscore_within_subject",
    "normalize_separated",
    "NormalizationWorkspace",
    "fuse_normalize_tile",
    "normalizer_body",
]

#: Correlations are clipped to +-(1 - _CLIP_EPS) before arctanh so that
#: degenerate +-1 coefficients (a voxel correlated with itself, or
#: duplicated time courses) map to a large finite z instead of inf.
_CLIP_EPS = 1e-6


def fisher_z(corr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Equation 4: ``z = arctanh(r)``, computed in float32.

    Values are clipped into the open interval (-1, 1) first; see
    ``_CLIP_EPS``.  ``out`` may alias ``corr`` for in-place operation.
    """
    corr = np.asarray(corr)
    if out is None:
        out = np.empty_like(corr, dtype=np.float32)
    limit = np.float32(1.0 - _CLIP_EPS)
    np.clip(corr, -limit, limit, out=out)
    return np.arctanh(out, out=out)


def zscore_within_subject(
    z: np.ndarray, epochs_per_subject: int, eps: float = 1e-12
) -> np.ndarray:
    """Equation 5 applied in place along subject-contiguous epochs.

    ``z`` has voxel-major shape ``(V, M, N)`` with the ``M`` epochs
    grouped by subject (``M = n_subjects * epochs_per_subject``).  For
    every (voxel, subject, target) the ``epochs_per_subject`` values are
    standardized with the population standard deviation.  Zero-variance
    populations become 0.
    """
    z = np.asarray(z)
    if z.ndim != 3:
        raise ValueError(f"expected (V, M, N) correlations, got {z.shape}")
    n_rows, m, n = z.shape
    if epochs_per_subject < 1:
        raise ValueError("epochs_per_subject must be >= 1")
    if m % epochs_per_subject != 0:
        raise ValueError(
            f"epoch count {m} not divisible by epochs_per_subject "
            f"{epochs_per_subject}"
        )
    grouped = z.reshape(n_rows, m // epochs_per_subject, epochs_per_subject, n)
    mean = grouped.mean(axis=2, keepdims=True)
    std = grouped.std(axis=2, keepdims=True)
    grouped -= mean
    np.divide(grouped, std, out=grouped, where=std > eps)
    grouped[np.broadcast_to(std <= eps, grouped.shape)] = 0.0
    return z


def normalize_separated(
    corr: np.ndarray, epochs_per_subject: int
) -> np.ndarray:
    """Baseline stage 2: Fisher transform then z-score, full-array passes.

    Operates in place on the float32 correlation array and returns it.
    This is the "separated" variant of Table 7 — stage 1 finished
    completely before this runs, so every element is re-fetched from
    memory.
    """
    corr = np.asarray(corr)
    if corr.dtype != np.float32:
        raise TypeError(f"expected float32 correlations, got {corr.dtype}")
    fisher_z(corr, out=corr)
    return zscore_within_subject(corr, epochs_per_subject)


class NormalizationWorkspace:
    """Reusable scratch for the engine's tile walk, keyed by shape.

    Fresh ``np.empty`` allocations per tile would page-fault megabytes
    of scratch on every call.  The workspace keeps the :data:`KEEP` most
    recently used shapes of each buffer kind — the steady and
    ragged-tail blocks of both tile axes — so a walk (and a caller that
    reuses the workspace across tasks) allocates each shape once, while
    a caller whose shape keeps changing retains a bounded set.
    ``allocations`` counts buffer sets made.  Not thread-safe: the
    engine gives pool thread ``k`` its own :meth:`slot`.
    """

    #: Shapes retained per buffer kind: (steady, tail) rows x columns.
    KEEP = 4

    def __init__(self) -> None:
        self._norm: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
        self._tiles: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
        self._slots: list[NormalizationWorkspace] = []
        #: Buffer sets allocated so far (this slot only).
        self.allocations = 0

    def _held(
        self,
        cache: dict[tuple[int, ...], tuple[np.ndarray, ...]],
        shape: tuple[int, ...],
        *parts: tuple[int, ...],
    ) -> tuple[np.ndarray, ...]:
        held = cache.pop(shape, None)
        if held is None:
            if len(cache) == self.KEEP:
                del cache[next(iter(cache))]  # least recently used
            held = tuple(np.empty(part, dtype=np.float32) for part in parts)
            self.allocations += 1
        cache[shape] = held  # most recently used last
        return held

    def buffers(
        self, grouped_shape: tuple[int, int, int, int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mean, std, sq) scratch for a ``(V, S, E, N)`` grouped tile."""
        v, s, _, n = grouped_shape
        mean, std, sq = self._held(
            self._norm, grouped_shape, (v, s, 1, n), (v, s, 1, n), grouped_shape
        )
        return mean, std, sq

    def tile(self, shape: tuple[int, int, int]) -> np.ndarray:
        """The ``(V, E, N)`` float32 tile the gemm writes into."""
        return self._held(self._tiles, shape, shape)[0]

    @property
    def nbytes(self) -> int:
        """Bytes of scratch retained (this slot only)."""
        return sum(
            part.nbytes
            for cache in (self._norm, self._tiles)
            for held in cache.values()
            for part in held
        )

    def slot(self, k: int) -> "NormalizationWorkspace":
        """Scratch of pool thread ``k``; thread 0 uses the workspace
        itself.  Call from the dealing thread, before the deal."""
        while len(self._slots) < k:
            self._slots.append(NormalizationWorkspace())
        return self if k == 0 else self._slots[k - 1]


def fuse_normalize_tile(
    tile: np.ndarray,
    epochs_per_subject: int,
    eps: float = 1e-12,
    workspace: NormalizationWorkspace | None = None,
) -> np.ndarray:
    """Fisher-z + within-subject z-score of a whole tile, fast path.

    Bitwise-equal to ``normalize_separated(tile, epochs_per_subject)``.
    numpy clips and arctanhs the tile (its float32 ``arctanh`` is the
    reference's, to the ulp); the z-score tail is one call of the
    compiled ``normalize_zscore`` (:mod:`repro.native`, built on first
    use), which makes the reference's float32 operations in its order,
    population by population while each is cache-resident, with the
    GIL released, so the engine's threads normalize concurrently.  A
    process where the library could not be built or loaded runs the
    numpy body, :func:`_fuse_normalize_tile_numpy`, as does a
    one-column tile (numpy sums a contiguous population pairwise, the
    compiled tail in order).

    ``tile`` must be a C-contiguous float32 view of voxel-major
    correlations ``(V, M, N)`` with ``M`` divisible by
    ``epochs_per_subject``; it is normalized in place and returned.
    """
    return _fuse(tile, epochs_per_subject, eps, workspace, native.solver())


def normalizer_body() -> str:
    """Which body :func:`fuse_normalize_tile` runs: ``"native"`` or
    ``"numpy"``."""
    return "numpy" if native.solver() is None else "native"


def _fuse_normalize_tile_numpy(
    tile: np.ndarray,
    epochs_per_subject: int,
    eps: float = 1e-12,
    workspace: NormalizationWorkspace | None = None,
) -> np.ndarray:
    """:func:`fuse_normalize_tile` through its numpy body, always: the
    fallback, and the bitwise oracle of the native body.

    The reference with the redundant passes stripped out: ``np.std``'s
    internal re-computation of the centered values is replaced by
    reusing the in-place centered tile, the masked ``where=`` divide
    (4x the cost of a plain divide) becomes a plain divide against a
    std with degenerate entries set to ``inf``, and the final zero-fill
    of degenerate populations touches only the affected columns instead
    of the whole broadcast mask.  The op-for-op float32 sequence of the
    reference is otherwise preserved (same reductions, same order),
    which is what makes the equality exact rather than approximate.
    """
    return _fuse(tile, epochs_per_subject, eps, workspace, None)


def _float32_bound(eps: float) -> float:
    """The float32 ``t`` with ``s <= t`` exactly when the numpy body's
    ``s <= eps`` holds for a float32 ``s`` (a Python float compares in
    float32, a float64 scalar in float64)."""
    t = np.float32(eps)
    if not t <= eps:
        t = np.nextafter(t, np.float32(-np.inf))
    return float(t)


def _fuse(
    tile: np.ndarray,
    epochs_per_subject: int,
    eps: float,
    workspace: NormalizationWorkspace | None,
    lib: Any,
) -> np.ndarray:
    tile = np.asarray(tile)
    if tile.dtype != np.float32:
        raise TypeError(f"expected float32 correlations, got {tile.dtype}")
    if tile.ndim != 3:
        raise ValueError(f"expected (V, M, N) correlations, got {tile.shape}")
    if not tile.flags.c_contiguous:
        raise TypeError("fuse_normalize_tile requires a C-contiguous tile")
    n_rows, m, n = tile.shape
    if epochs_per_subject < 1:
        raise ValueError("epochs_per_subject must be >= 1")
    if m % epochs_per_subject != 0:
        raise ValueError(
            f"epoch count {m} not divisible by epochs_per_subject "
            f"{epochs_per_subject}"
        )
    if workspace is None:
        workspace = NormalizationWorkspace()
    e = epochs_per_subject
    grouped = tile.reshape(n_rows, m // e, e, n)
    mean, std, sq = workspace.buffers(grouped.shape)

    # Equation 4 (fisher_z inlined so the clip limit stays identical).
    limit = np.float32(1.0 - _CLIP_EPS)
    np.clip(tile, -limit, limit, out=tile)
    np.arctanh(tile, out=tile)

    if lib is not None and n > 1:
        # Equation 5 in C; ``mean`` and ``std`` lend it a row each, and
        # ``sq``'s pages are never touched.
        lib.normalize_zscore(
            tile.ctypes.data, n_rows * (m // e), e, n, _float32_bound(eps),
            mean.ctypes.data, std.ctypes.data,
        )
        return tile

    # Equation 5.  np.mean == umr_sum + true_divide(count); replicating
    # it keeps the accumulation order (and therefore the bits) of the
    # reference while writing into workspace buffers.
    np.add.reduce(grouped, axis=2, keepdims=True, out=mean)
    np.true_divide(mean, e, out=mean, casting="unsafe")
    np.subtract(grouped, mean, out=grouped)
    np.multiply(grouped, grouped, out=sq)
    np.add.reduce(sq, axis=2, keepdims=True, out=std)
    np.true_divide(std, e, out=std, casting="unsafe")
    np.sqrt(std, out=std)

    # Degenerate populations: x / inf underflows to +-0, so a plain
    # divide plus a targeted zero-fill of the affected columns matches
    # the reference's masked divide + broadcast zero-fill exactly.
    vi, si, ni = np.nonzero(std[:, :, 0, :] <= eps)
    if vi.size:
        std[vi, si, 0, ni] = np.inf
    np.divide(grouped, std, out=grouped)
    if vi.size:
        grouped[vi, si, :, ni] = 0.0
    return tile
