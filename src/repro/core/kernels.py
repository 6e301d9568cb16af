"""FCMA stage 3a: SVM kernel matrix precomputation (Section 4.4, Fig. 7).

For each voxel the linear-kernel matrix of its ``(M, N)`` correlation
data matrix is ``C = A A^T`` — a symmetric rank-k update with a very
large ``N`` ("syrk" in BLAS terms).  Precomputing it shrinks a voxel's
working set from an ``M x N`` data matrix (~60 MB at paper scale) to an
``M x M`` kernel (~160 KB), which is what lets the optimized pipeline
keep 240+ voxel problems resident on the coprocessor.

Two implementations are provided:

* :func:`kernel_matrix_baseline` — one BLAS call per voxel: the
  ``baseline`` pipeline's syrk, and what the per-voxel reference of
  stage 3 (:func:`~repro.core.voxel_selection.score_voxels_reference`)
  uses.
* :func:`kernel_matrix_batched` — **all V voxel kernels at once** as a
  stacked ``(V, M, N) @ (V, N, M)`` GEMM, the batch axis that keeps many
  voxel problems in flight the way the paper keeps 240+ problems
  resident on the coprocessor.  CSR input is Gram-ed per voxel by
  :func:`csr_gram_panel`.

Both follow **the Gram rule** (:func:`gram_chunks`): a voxel's kernel is
the BLAS product of its first column chunk, plus the product of each
later chunk in ascending column order, accumulated in float32.  The rule
— not the call site — fixes the rounding, so a kernel is the same bits
whether these functions Gram a materialized block (the baseline, the
oracles) or the engine walk reduces each chunk where it computed it and
never builds the block (:class:`repro.core.engine.GramEmitter` — what
every ``optimized`` task and every tile of the tiled runtime runs),
with :func:`sum_gram_partials` adding the partials in order.  At ``N``
up to one chunk the rule is a single ``matmul``.

The dense pair is bitwise equal: every slice of the stacked GEMM is the
identical per-voxel BLAS call.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from .engine import deal, thread_budget
from .tiling import block_bounds

__all__ = [
    "GRAM_CHUNK_COLS",
    "csr_gram_panel",
    "gram_chunks",
    "kernel_matrix_baseline",
    "kernel_matrix_batched",
    "sum_gram_partials",
]

#: Feature columns one BLAS product of the Gram rule covers.  Part of the
#: numeric definition of a dense kernel (every process of a run must
#: agree on it), so a constant, not a knob.  Measured at
#: ``(64, 12, 34470)`` the chunked Gram costs 5 % more than the single
#: call and nearly halves its worst float32 error against a float64
#: oracle; 1024 costs more, 4096 no less error (docs/perf-models.md).
GRAM_CHUNK_COLS = 2048


def gram_chunks(
    n_cols: int, start: int = 0, stop: int | None = None
) -> list[tuple[int, int]]:
    """The Gram rule's column chunks ``[(c0, c1), ...]``, ascending.

    The chunks of an ``n_cols``-wide row: :data:`GRAM_CHUNK_COLS` wide,
    except that a one-column tail is merged into its neighbour (a
    one-column product leaves the BLAS gemm path, the
    :func:`~repro.core.engine.gemm_safe_block` reason).  ``start`` /
    ``stop`` select the chunks of one column tile of that row; they must
    be chunk boundaries — a tile that cuts a chunk cannot produce the
    rule's partial products, so that raises instead of rounding
    differently.
    """
    if n_cols < 1:
        raise ValueError("n_cols must be >= 1")
    chunks = block_bounds(n_cols, GRAM_CHUNK_COLS)
    if len(chunks) > 1 and chunks[-1][1] - chunks[-1][0] == 1:
        chunks[-2:] = [(chunks[-2][0], n_cols)]
    if stop is None:
        stop = n_cols
    inside = [c for c in chunks if start <= c[0] and c[1] <= stop]
    if not inside or inside[0][0] != start or inside[-1][1] != stop:
        raise ValueError(
            f"columns [{start}, {stop}) are not whole Gram chunks of a "
            f"{n_cols}-column row"
        )
    return inside


def _gram_into(data: np.ndarray, out: np.ndarray) -> None:
    """``out = data @ data^T`` over the last two axes, by the Gram rule."""
    partial = None
    for c0, c1 in gram_chunks(data.shape[-1]):
        chunk = data[..., c0:c1]
        if c0 == 0:
            np.matmul(chunk, chunk.swapaxes(-1, -2), out=out)
        else:
            if partial is None:
                partial = np.empty_like(out)
            np.matmul(chunk, chunk.swapaxes(-1, -2), out=partial)
            out += partial


def sum_gram_partials(partials: Iterable[np.ndarray]) -> np.ndarray:
    """The rule's additions alone: float32 chunk products, given in
    ascending column order, added left to right — what
    :func:`kernel_matrix_batched` makes of the same chunks of one row."""
    first, *later = partials
    out = np.array(first, dtype=np.float32)
    for partial in later:
        out += partial
    return out


def kernel_matrix_baseline(data: np.ndarray) -> np.ndarray:
    """Baseline syrk: one BLAS call ``A A^T`` (``cblas_ssyrk``) per
    chunk of the Gram rule — a single call up to one chunk."""
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"data must be (samples, features), got {data.shape}")
    data = np.ascontiguousarray(data, dtype=np.float32)
    out = np.empty((data.shape[0], data.shape[0]), dtype=np.float32)
    _gram_into(data, out)
    return out


def kernel_matrix_batched(
    data: np.ndarray,
    *,
    threads: int | None = None,
) -> np.ndarray:
    """Batched syrk: all ``V`` voxel kernels in one stacked GEMM.

    ``data`` holds every voxel problem's data matrix stacked on a batch
    axis, shape ``(V, M, N)``; the result is the ``(V, M, M)`` stack of
    linear kernels ``data[v] @ data[v].T``: per contiguous voxel slab,
    one stacked ``np.matmul`` per column chunk of the Gram rule
    (:func:`gram_chunks`), the slabs dealt to the engine's thread pool
    (:func:`~repro.core.engine.deal` over
    :func:`~repro.core.engine.thread_budget` threads, or ``threads`` —
    an internal argument for tests).  Every voxel's chunk product is
    its own BLAS call either way, so the result does not depend on the
    split and each slice is bitwise-equal to
    :func:`kernel_matrix_baseline`.

    ``data`` may also be a :class:`repro.core.sparse.SparseCorrelationResult`,
    in which case each voxel's ``(M, N)`` CSR row band is Gram-ed as
    sparse-times-sparse-transpose (:func:`csr_gram_panel`); the dense
    ``(V, M, M)`` kernel stack feeds the batched SMO unchanged, and at
    ``tau=0`` it equals the dense path within float32 tolerance (sparse
    dot products accumulate in a different order).
    """
    from .sparse import SparseCorrelationResult

    if isinstance(data, SparseCorrelationResult):
        return csr_gram_panel(data, 0, data.shape[0])
    data = np.asarray(data)
    if data.ndim != 3:
        raise ValueError(
            f"data must be (problems, samples, features), got {data.shape}"
        )
    data = np.ascontiguousarray(data, dtype=np.float32)
    v, m, _ = data.shape
    out = np.empty((v, m, m), dtype=np.float32)
    budget = max(1, thread_budget() if threads is None else threads)
    # One slab inline; otherwise a few per thread, so a slow core
    # ends up with fewer of them.
    n_slabs = 1 if budget == 1 else 4 * budget
    slabs = block_bounds(v, max(1, -(-v // n_slabs)))

    def gram(slot: int, i: int) -> None:
        v0, v1 = slabs[i]
        _gram_into(data[v0:v1], out[v0:v1])

    deal(len(slabs), budget, gram)
    return out


def csr_gram_panel(sparse: "Any", start: int, stop: int) -> np.ndarray:
    """Dense Gram kernels for a panel of voxels of a CSR stage-1/2 result.

    ``sparse`` is a :class:`repro.core.sparse.SparseCorrelationResult`
    whose rows are ``(voxel, epoch)`` pairs; for each voxel ``v`` in
    ``[start, stop)`` the ``(M, N)`` CSR band of its ``M`` epoch rows is
    multiplied with its own transpose — sparse times sparse-transpose,
    ``O(nnz)`` per output row instead of ``O(M * N)`` — and densified
    into the ``(stop - start, M, M)`` float32 kernel stack the batched
    SMO consumes.  Each voxel's kernel depends on its own band only, so
    any panelling gives the same bits; the run path Grams the whole
    result in one panel (:func:`kernel_matrix_batched`).
    """
    n_problems, m, _ = sparse.shape
    if not 0 <= start <= stop <= n_problems:
        raise ValueError(
            f"panel [{start}, {stop}) out of range for {n_problems} voxels"
        )
    matrix = sparse.to_scipy()
    out = np.empty((stop - start, m, m), dtype=np.float32)
    for i, v in enumerate(range(start, stop)):
        band = matrix[v * m : (v + 1) * m]
        out[i] = (band @ band.T).toarray()
    return out
