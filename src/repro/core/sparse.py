"""Sparse thresholded stage 1/2: threshold-during-fuse correlation.

The dense correlation matrix is ``V x E x N`` float32 — ~4.7 GB per
epoch at the paper's 34k voxels and two orders of magnitude beyond
memory at the 100k-voxel scenarios the ROADMAP targets.  Downstream
FCMA analyses only consume the strongest correlations per voxel, so
this module filters *inside* the fused stage-1/2 tile loop: each
``(voxel_sweep, E, target_block)`` tile is gemm-ed, normalized by the
same :func:`repro.core.normalization.fuse_normalize_tile` the dense
engine uses, and immediately reduced to its surviving entries while the
tile is still cache-resident.  The dense tile is then reused for the
next block — peak memory is the BOLD input plus, per engine thread, one
tile and its two select buffers, plus the CSR output; never the full
correlation volume, and in neither mode a whole output row.

Two filter modes, sharing one selection semantics with the dense
reference (:func:`threshold_dense`):

* ``threshold`` (tau): keep entries with ``|value| >= tau`` of the
  *normalized* (Fisher-z + within-subject z-scored) correlations;
* ``top_k``: keep the ``k`` largest ``|value|`` per output row
  ``(assigned voxel, epoch)``, ties broken toward the smaller target
  column — exactly the first ``k`` entries of a stable descending
  ``|value|`` argsort.  Each tile keeps its own exact per-row
  top-``min(k, width)`` (an entry with fewer than ``k`` entries ahead of
  it in the row has fewer than ``k`` ahead of it in its tile, so the
  union over tiles holds every winner) and the end of the sweep selects
  the top ``k`` of those candidates.

Equivalence contract: for identical input bits the engine's CSR is
**bitwise identical** (indptr, indices, data) to
``threshold_dense(densify-of-the-tau=0-run)`` because both sides apply
the same predicate to the same float32 values; against the dense
emitter, which keeps all assigned rows in one sweep, the values agree
to float32 tolerance (BLAS may pick a different accumulation kernel for
a narrow row slab).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

import numpy as np

from .engine import EngineShape, TilePlan, thread_budget
from .tiling import block_bounds

__all__ = [
    "SPARSE_TILE_BYTES",
    "CSREmitter",
    "SparseCorrelationResult",
    "SparseStage12Stats",
    "sparse_tile_plan",
    "threshold_dense",
    "topk_block",
]

#: Per-tile byte budget for :func:`sparse_tile_plan`, both modes.  Each
#: tile is walked about five times after its gemm (normalize, ``abs``,
#: partition, compare, gather), every walk a numpy call with fixed
#: dispatch cost: dense-planner L2 tiles (~100 KB) make thousands of
#: tiles whose dispatch dwarfs the arithmetic, and narrow top-k tiles
#: hand more candidates to the merge.  Tiles much larger leave too few
#: per sweep to keep the engine's threads level and grow each thread's
#: footprint (the tile, its normalizer scratch, two select buffers).
#: Chosen by measurement over 1-16 MiB in both modes
#: (docs/perf-models.md, "Sparse stage 1/2").
SPARSE_TILE_BYTES = 4 * 1024 * 1024

#: Default voxel-sweep width for :func:`sparse_tile_plan` — wide enough
#: to amortize the per-sweep A-panel copy.  Row slabs are not bitwise
#: invariant under BLAS (see :mod:`repro.core.engine`), so this value
#: anchors the CSR bits.
SPARSE_SWEEP_ROWS = 16

#: Top-k tiles are at least this many times ``k`` columns wide (or the
#: whole row): a tile hands ``min(k, width)`` candidates per row to the
#: merge, so a tile narrower than a few ``k`` filters nothing — at the
#: sparse-100k preset (E = 24, k = 1000) a byte-sized tile is 2,730
#: columns and 37 % of it would be candidates.
TOPK_TILE_MIN_WIDTH_IN_K = 8


def sparse_tile_plan(
    n_assigned: int,
    n_epochs: int,
    n_voxels: int,
    *,
    top_k: int | None = None,
) -> Tuple[int, int]:
    """Default ``(voxel_sweep, target_block)`` for the sparse engine.

    Unlike the dense planner's L2-reuse tiling, this sizes tiles to
    ``SPARSE_TILE_BYTES`` so the per-tile dispatch cost of the fused
    normalize + filter is amortized (see :data:`SPARSE_TILE_BYTES`);
    with ``top_k`` the tile is widened to
    :data:`TOPK_TILE_MIN_WIDTH_IN_K` ``* top_k`` columns where the byte
    budget alone would make it narrower.  The choice only affects
    speed: the engine's CSR output is bitwise identical under any
    column tiling.
    """
    if n_assigned < 1 or n_epochs < 1 or n_voxels < 1:
        raise ValueError("tile plan dimensions must be >= 1")
    sweep = min(SPARSE_SWEEP_ROWS, n_assigned)
    per_column_bytes = sweep * n_epochs * 4
    t_block = max(1, SPARSE_TILE_BYTES // per_column_bytes)
    if top_k is not None:
        t_block = max(t_block, TOPK_TILE_MIN_WIDTH_IN_K * top_k)
    return sweep, min(n_voxels, t_block)


@dataclass(frozen=True)
class SparseStage12Stats:
    """Instrumentation from one sparse stage-1/2 run."""

    #: Gemm+normalize tiles the engine visited.
    n_tiles: int
    #: Tiles whose filter kept nothing (tau mode only; top-k always
    #: keeps ``min(k, N)`` entries per row, so nothing prunes).
    tiles_pruned: int
    #: Entries kept across the whole output.
    nnz: int
    #: Dense size of the output the filter scanned (``V * E * N``).
    elements: int

    @property
    def density(self) -> float:
        """Kept fraction, in [0, 1]."""
        if self.elements <= 0:
            return 0.0
        return self.nnz / self.elements


@dataclass(frozen=True)
class SparseCorrelationResult:
    """CSR-encoded normalized correlations, rows = (voxel, epoch) pairs.

    Row ``v * n_epochs + e`` holds assigned voxel ``v``'s epoch-``e``
    correlations; columns index target voxels.  The layout is exactly
    scipy's CSR over the flattened ``(V * E, N)`` view of the dense
    ``(V, E, N)`` array, kept as plain arrays so :mod:`repro.core` does
    not import scipy at module scope.
    """

    indptr: np.ndarray   # int64, (V * E + 1,)
    indices: np.ndarray  # int32, (nnz,) — ascending within each row
    data: np.ndarray     # float32, (nnz,)
    shape: Tuple[int, int, int]  # (V, E, N)

    def __post_init__(self) -> None:
        n_assigned, n_epochs, n_voxels = self.shape
        n_rows = n_assigned * n_epochs
        if self.indptr.shape != (n_rows + 1,):
            raise ValueError(
                f"indptr must have shape ({n_rows + 1},), got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must be the same length")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= n_voxels
        ):
            raise ValueError("column indices out of range")

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def n_rows(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def elements(self) -> int:
        return self.n_rows * self.shape[2]

    @property
    def density(self) -> float:
        if self.elements == 0:
            return 0.0
        return self.nnz / self.elements

    @property
    def row_nnz(self) -> np.ndarray:
        """Per-row kept counts, shape ``(V * E,)`` int64."""
        return np.diff(self.indptr)

    def row(self, voxel: int, epoch: int) -> Tuple[np.ndarray, np.ndarray]:
        """One row's ``(columns, values)``."""
        n_assigned, n_epochs, _ = self.shape
        if not (0 <= voxel < n_assigned and 0 <= epoch < n_epochs):
            raise IndexError(f"row ({voxel}, {epoch}) out of range for {self.shape}")
        r = voxel * n_epochs + epoch
        lo, hi = int(self.indptr[r]), int(self.indptr[r + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def densify(self) -> np.ndarray:
        """Reconstruct the dense ``(V, E, N)`` array (zeros elsewhere)."""
        dense = np.zeros(self.shape, dtype=np.float32)
        flat = dense.reshape(self.n_rows, self.shape[2])
        rows = np.repeat(np.arange(self.n_rows), self.row_nnz)
        flat[rows, self.indices] = self.data
        return dense

    def to_scipy(self) -> Any:
        """The ``(V * E, N)`` scipy CSR matrix sharing these buffers."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.data, self.indices, self.indptr),
            shape=(self.n_rows, self.shape[2]),
        )


def _check_mode(threshold: float | None, top_k: int | None) -> None:
    if (threshold is None) == (top_k is None):
        raise ValueError("exactly one of threshold and top_k must be given")
    if threshold is not None and not threshold >= 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")


def topk_block(
    block: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row top-``k`` by ``|value|`` of a 2D block, deterministic.

    Returns ``(rows, cols, values)`` in row-major order, columns
    ascending within each row.  The selection equals the first
    ``min(k, n)`` entries of a *stable* descending-``|value|`` argsort:
    ties at the k-th-largest boundary resolve toward smaller column
    indices.  The body is :func:`_topk_select`, the one select both
    :class:`CSREmitter` (per tile and at the merge) and the
    :func:`threshold_dense` oracle run.
    """
    n_rows, n = block.shape
    counts, flat = _topk_select(block, min(k, n))
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
    return rows, flat - rows * n, block.reshape(-1)[flat]


def _topk_select(
    block: np.ndarray,
    kk: int,
    scratch: Tuple[np.ndarray, np.ndarray] | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact per-row top-``kk`` (``kk <= n``) of a 2D block.

    Returns ``(counts, flat)``: the kept entries' positions in the
    flattened block, ascending (row-major, so ascending column within a
    row), and how many each row kept — ``kk``, or fewer where a row
    holds NaNs, which never rank.  A value partition (O(n) per row)
    finds each row's kk-th largest magnitude and one ``>=`` compare
    keeps the candidates; only rows whose count then exceeds ``kk``, a
    tie band at the kk-th magnitude, are trimmed, largest columns
    first.  Determinism is value-based, so it holds across partition
    algorithms.

    ``scratch`` is two flat buffers of ``block.dtype`` holding at least
    ``block.size`` elements each (magnitudes; partition copy, whose
    bytes are then reused for the mask); without it both are allocated.
    ``flatnonzero`` of the mask instead of 2D ``np.nonzero``: one index
    array instead of two, 2-6x faster (docs/perf-models.md).
    """
    n_rows, n = block.shape
    if kk == n:
        return np.full(n_rows, n), np.arange(n_rows * n)
    if scratch is None:
        scratch = (
            np.empty(block.size, dtype=block.dtype),
            np.empty(block.size, dtype=block.dtype),
        )
    magnitude = scratch[0][: block.size].reshape(block.shape)
    part = scratch[1][: block.size].reshape(block.shape)
    np.abs(block, out=magnitude)
    np.copyto(part, magnitude)
    part.partition(n - kk, axis=1)
    kth = part[:, n - kk].copy()
    mask = part.reshape(-1).view(np.bool_)[: block.size].reshape(block.shape)
    np.greater_equal(magnitude, kth[:, None], out=mask)
    flat = np.flatnonzero(mask)
    counts = np.diff(np.searchsorted(flat, np.arange(n_rows + 1) * n))
    if counts.max() > kk:
        rows = np.repeat(np.arange(n_rows), counts)
        tie = np.flatnonzero(magnitude.reshape(-1)[flat] == kth[rows])
        tie_rows = rows[tie]
        n_ties = np.bincount(tie_rows, minlength=n_rows)
        rank = np.arange(tie.size) - (np.cumsum(n_ties) - n_ties)[tie_rows]
        # Entries strictly above the kk-th magnitude all stay; the tie
        # band fills the room they leave, smallest columns first.
        room = kk - (counts - n_ties)
        keep = np.ones(flat.size, dtype=bool)
        keep[tie[rank >= room[tie_rows]]] = False
        flat = flat[keep]
        counts = np.minimum(counts, kk)
    return counts, flat


def _tau_block(
    block: np.ndarray, limit: np.float32
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries of a 2D block with ``|value| >= limit``, row-major.

    One flat scan instead of 2D ``np.nonzero``: the mask pass over the
    full block dominates, and ``flatnonzero`` writes one index array
    where the tuple form writes two; rows/cols are then recovered with
    arithmetic over just the survivors.
    """
    n_cols = block.shape[1]
    flat = np.flatnonzero(np.abs(block) >= limit)
    rows = flat // n_cols
    cols = flat - rows * n_cols
    return rows, cols, block.reshape(-1)[flat]


def _assemble(
    rows_parts: List[np.ndarray],
    cols_parts: List[np.ndarray],
    vals_parts: List[np.ndarray],
    shape: Tuple[int, int, int],
) -> SparseCorrelationResult:
    """CSR from row-id/column/value fragments.

    The engine hands fragments over in ascending column order within a
    sweep; a stable sort by row id restores row-major layout while
    preserving each row's ascending column order.  Fragments that are
    row-major already (top-k sweeps, one-tile tau sweeps) skip it.
    """
    n_rows = shape[0] * shape[1]
    if rows_parts:
        rows = np.concatenate(rows_parts)
        cols = np.concatenate(cols_parts)
        vals = np.concatenate(vals_parts)
    else:
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int32)
        vals = np.empty(0, dtype=np.float32)
    if np.any(rows[1:] < rows[:-1]):
        order = np.argsort(rows, kind="stable")
        cols, vals = cols[order], vals[order]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return SparseCorrelationResult(
        indptr=indptr,
        indices=cols.astype(np.int32, copy=False),
        data=vals,
        shape=shape,
    )


def threshold_dense(
    dense: np.ndarray,
    *,
    threshold: float | None = None,
    top_k: int | None = None,
) -> SparseCorrelationResult:
    """Filter a dense normalized ``(V, E, N)`` array into CSR.

    The densify-then-threshold reference: applies exactly the selection
    semantics of :class:`CSREmitter` to an already-materialized dense
    array, so on identical input bits the two produce
    bitwise-identical CSR buffers.
    """
    _check_mode(threshold, top_k)
    dense = np.asarray(dense)
    if dense.ndim != 3:
        raise ValueError(f"dense must be 3D (V, E, N), got shape {dense.shape}")
    if dense.dtype != np.float32:
        raise TypeError(f"dense must be float32, got {dense.dtype}")
    n_assigned, n_epochs, n_voxels = dense.shape
    flat = np.ascontiguousarray(dense).reshape(n_assigned * n_epochs, n_voxels)
    if threshold is not None:
        rows, cols, vals = _tau_block(flat, np.float32(threshold))
    else:
        assert top_k is not None
        rows, cols, vals = topk_block(flat, top_k)
    return _assemble([rows], [cols], [vals], (n_assigned, n_epochs, n_voxels))


class CSREmitter:
    """Filters fused tiles straight to CSR while they are cache-resident.

    :func:`sparse_tile_plan` sizing by default.  Both modes reduce a
    tile inside ``emit``, on the engine's pool threads, and discard it:
    tau mode keeps the tile's ``|value| >= tau`` entries; top-k mode
    keeps the tile's exact per-row top-``min(k, width)`` as a
    ``(rows, kept)`` candidate block, and ``end_sweep`` — handed the
    blocks in ascending column order, so position in the concatenated
    candidate row *is* column order and the tie rule survives — selects
    the exact top ``k`` of at most ``n_tiles * k`` candidates per row.
    No whole output row is ever held.  Both modes see the identical
    gemm + normalize bits, and the selection semantics (including top-k
    tie-breaks toward smaller columns) are exactly those of
    :func:`threshold_dense`.

    ``finalize`` returns ``(SparseCorrelationResult,
    SparseStage12Stats)``; the stats stay available on ``.stats``.
    """

    def __init__(
        self,
        *,
        threshold: float | None = None,
        top_k: int | None = None,
        voxel_sweep: int | None = None,
        target_block: int | None = None,
    ) -> None:
        _check_mode(threshold, top_k)
        if voxel_sweep is not None and voxel_sweep < 1:
            raise ValueError("voxel_sweep must be >= 1")
        if target_block is not None and target_block < 1:
            raise ValueError("target_block must be >= 1")
        self._limit = np.float32(threshold) if threshold is not None else None
        self._top_k = top_k
        self._voxel_sweep = voxel_sweep
        self._target_block = target_block
        # Top-k select buffers, a pair of tile-sized arrays per engine
        # thread, made by ``begin`` on the calling thread so the
        # footprint does not depend on the allocator: ``emit`` pops a
        # pair and appends it back (both atomic on a list), so a pair
        # is only ever in one tile's hands.
        self._scratch: List[Tuple[np.ndarray, np.ndarray]] = []
        self._scratch_size = 0
        self._rows: List[np.ndarray] = []
        self._cols: List[np.ndarray] = []
        self._vals: List[np.ndarray] = []
        self._shape: Tuple[int, int, int] | None = None
        #: Instrumentation of the most recent run (also returned).
        self.stats: SparseStage12Stats | None = None
        self.n_tiles = 0
        self.tiles_pruned = 0
        #: The tile the engine walked: sweep rows and column width
        #: (introspection/counters, set by ``begin``).
        self.tile_rows = 0
        self.tile_cols = 0

    def plan(self, shape: EngineShape) -> TilePlan:
        default_sweep, default_block = sparse_tile_plan(
            shape.n_assigned, shape.n_epochs, shape.n_voxels, top_k=self._top_k
        )
        return TilePlan(
            voxel_sweep=self._voxel_sweep or default_sweep,
            target_block=self._target_block or default_block,
        )

    def begin(self, shape: EngineShape, plan: TilePlan) -> None:
        assert plan.voxel_sweep is not None and plan.target_block is not None
        self._shape = shape.dense_shape
        self._rows, self._cols, self._vals = [], [], []
        self._scratch_size = plan.voxel_sweep * shape.n_epochs * plan.target_block
        # One pair per engine thread that can hold a tile, made here: a
        # pair a pool thread allocated would sit in that thread's own
        # malloc arena (``run_engine`` sizes its scratch the same way).
        n_blocks = (
            len(plan.columns)
            if plan.columns is not None
            else len(block_bounds(shape.n_voxels, plan.target_block))
        )
        self._scratch = [
            self._new_scratch()
            for _ in range(min(thread_budget(), n_blocks) if self._top_k else 0)
        ]
        self.n_tiles = 0
        self.tiles_pruned = 0
        self.stats = None
        self.tile_rows, self.tile_cols = plan.voxel_sweep, plan.target_block

    def _new_scratch(self) -> Tuple[np.ndarray, np.ndarray]:
        """One top-k select pair: magnitudes and partition buffers."""
        return (
            np.empty(self._scratch_size, dtype=np.float32),
            np.empty(self._scratch_size, dtype=np.float32),
        )

    def emit(
        self, tile: np.ndarray, v0: int, v1: int, n0: int, n1: int
    ) -> Tuple[np.ndarray, ...] | None:
        """The tile's surviving entries: tau mode returns ``(rows, cols,
        vals)`` (``None`` when pruned), top-k mode the candidate block
        ``(cols, vals)`` of :meth:`_topk_candidates`.  Either way only
        tile-owned state is touched, so tiles of one sweep may emit
        concurrently."""
        assert self._shape is not None
        width, nb = v1 - v0, n1 - n0
        n_epochs = self._shape[1]
        block = tile.reshape(width * n_epochs, nb)
        if self._top_k is not None:
            return self._topk_candidates(block, n0)
        assert self._limit is not None
        t_rows, t_cols, t_vals = _tau_block(block, self._limit)
        if t_rows.size == 0:
            return None
        return v0 * n_epochs + t_rows, n0 + t_cols, t_vals

    def _topk_candidates(
        self, block: np.ndarray, n0: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One tile's exact per-row top-``min(k, width)`` as ``(rows,
        kept)`` blocks of int32 target columns and float32 values,
        columns ascending along each row.  A row holding NaNs keeps
        fewer; its tail is padded with column -1 / value 0, which
        ``end_sweep`` drops."""
        assert self._top_k is not None
        n_rows, nb = block.shape
        kk = min(self._top_k, nb)
        try:
            scratch = self._scratch.pop()
        except IndexError:  # more engine threads than the budget (a test's)
            scratch = self._new_scratch()
        counts, flat = _topk_select(block, kk, scratch)
        self._scratch.append(scratch)
        vals = block.reshape(-1)[flat]
        if flat.size == n_rows * kk:
            first = np.arange(n_rows) * nb - n0
            cols = flat.reshape(n_rows, kk) - first[:, None]
            return cols.astype(np.int32), vals.reshape(n_rows, kk)
        rows = np.repeat(np.arange(n_rows), counts)
        slot = np.arange(flat.size) - (np.cumsum(counts) - counts)[rows]
        cols = np.full((n_rows, kk), -1, dtype=np.int32)
        cols[rows, slot] = flat - rows * nb + n0
        padded = np.zeros((n_rows, kk), dtype=np.float32)
        padded[rows, slot] = vals
        return cols, padded

    def end_sweep(
        self, v0: int, v1: int, fragments: Sequence[Any]
    ) -> None:
        assert self._shape is not None
        self.n_tiles += len(fragments)
        if self._top_k is None:
            kept = [f for f in fragments if f is not None]
            self.tiles_pruned += len(fragments) - len(kept)
        else:
            # Merge: the tiles' candidate blocks side by side are each
            # row's candidates in ascending column order; one more
            # select over them is the exact top-k of the whole row.
            cand_cols = np.concatenate([f[0] for f in fragments], axis=1)
            cand_vals = np.concatenate([f[1] for f in fragments], axis=1)
            n_rows, n_cand = cand_vals.shape
            counts, flat = _topk_select(cand_vals, min(self._top_k, n_cand))
            rows = np.repeat(
                np.arange(v0 * self._shape[1], v1 * self._shape[1]), counts
            )
            cols = cand_cols.reshape(-1)[flat]
            vals = cand_vals.reshape(-1)[flat]
            real = cols >= 0
            if not real.all():
                rows, cols, vals = rows[real], cols[real], vals[real]
            kept = [(rows, cols, vals)]
        for rows, cols, vals in kept:
            self._rows.append(rows)
            self._cols.append(cols)
            self._vals.append(vals)

    def finalize(self) -> Tuple[SparseCorrelationResult, SparseStage12Stats]:
        assert self._shape is not None
        result = _assemble(self._rows, self._cols, self._vals, self._shape)
        n_assigned, n_epochs, n_voxels = self._shape
        self.stats = SparseStage12Stats(
            n_tiles=self.n_tiles,
            tiles_pruned=self.tiles_pruned,
            nnz=result.nnz,
            elements=n_assigned * n_epochs * n_voxels,
        )
        # Fragment lists and select buffers are dropped so a kept
        # emitter does not pin them alive alongside the assembled CSR.
        self._rows, self._cols, self._vals = [], [], []
        self._scratch = []
        return result, self.stats
