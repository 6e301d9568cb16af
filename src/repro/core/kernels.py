"""FCMA stage 3a: SVM kernel matrix precomputation (Section 4.4, Fig. 7).

For each voxel the linear-kernel matrix of its ``(M, N)`` correlation
data matrix is ``C = A A^T`` — a symmetric rank-k update with a very
large ``N`` ("syrk" in BLAS terms).  Precomputing it shrinks a voxel's
working set from an ``M x N`` data matrix (~60 MB at paper scale) to an
``M x M`` kernel (~160 KB), which is what lets the optimized pipeline
keep 240+ voxel problems resident on the coprocessor.

Three implementations are provided:

* :func:`kernel_matrix_baseline` — one BLAS call per voxel.
* :func:`kernel_matrix_blocked` — the paper's blocked accumulation
  (96-column panels feeding a 16x9 register-tiled microkernel), triangle
  only.
* :func:`kernel_matrix_batched` — **all V voxel kernels at once** as a
  stacked ``(V, M, N) @ (V, N, M)`` GEMM (optionally panel-blocked along
  N), the batch axis that keeps many voxel problems in flight the way
  the paper keeps 240+ problems resident on the coprocessor.

All are numerically equivalent up to float32 summation order.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .engine import deal, thread_budget
from .tiling import block_bounds, iter_blocks

__all__ = [
    "csr_gram_panel",
    "kernel_matrix_baseline",
    "kernel_matrix_blocked",
    "kernel_matrix_batched",
    "symmetrize_from_triangle",
]

#: Panel depth along the long (N) dimension; "blocks of 96 rows (an
#: integral multiple of VPU length)" in the paper's Fig. 7 walkthrough.
PANEL_DEPTH = 96

#: Microkernel output tile (rows x cols of C), the paper's
#: "auto-generated 16x9x96 assembly-level matrix multiply routine".
MICRO_TILE = (16, 9)


def kernel_matrix_baseline(data: np.ndarray) -> np.ndarray:
    """Baseline syrk: one BLAS call ``A A^T`` (``cblas_ssyrk``)."""
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"data must be (samples, features), got {data.shape}")
    data = np.ascontiguousarray(data, dtype=np.float32)
    return data @ data.T


def kernel_matrix_blocked(
    data: np.ndarray,
    panel_depth: int = PANEL_DEPTH,
    micro_tile: tuple[int, int] | None = None,
) -> np.ndarray:
    """Optimized syrk: accumulate 96-deep panels, triangle only.

    Walks the long dimension in ``panel_depth`` slices (each panel is
    the ``A_local`` buffer of Fig. 7), accumulating partial products
    into ``C``.  Only the lower triangle is computed ("only upper or
    lower triangle of the resulting matrix needs to be computed"): each
    panel's contribution is accumulated as row-band tiles
    ``C[i0:i1, :i1] += panel[i0:i1] @ panel[:i1]^T`` that stop at the
    diagonal block, so — unlike a full ``panel @ panel.T`` followed by a
    mask — only the triangle plus a narrow diagonal band is ever
    computed, halving the temporary traffic exactly as the paper claims.
    Passing ``micro_tile`` additionally tiles each panel product into
    16x9 output blocks, reproducing the microkernel loop structure
    exactly (slower in Python; used by equivalence tests).
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"data must be (samples, features), got {data.shape}")
    if panel_depth < 1:
        raise ValueError("panel_depth must be >= 1")
    data = np.ascontiguousarray(data, dtype=np.float32)
    m, n = data.shape
    out = np.zeros((m, m), dtype=np.float32)

    if micro_tile is None:
        row_band = MICRO_TILE[0]
        for n0, n1 in iter_blocks(n, panel_depth):
            panel = data[:, n0:n1]  # A_local of Fig. 7: (M, depth)
            for i0, i1 in iter_blocks(m, row_band):
                # Row-band tile ending at the diagonal block: every
                # column strictly right of i1 belongs to the upper
                # triangle and is never computed.
                out[i0:i1, :i1] += panel[i0:i1] @ panel[:i1].T
        # The diagonal bands picked up their (symmetric) upper corners;
        # drop them before mirroring.
        out = np.tril(out)
    else:
        tr, tc = micro_tile
        if tr < 1 or tc < 1:
            raise ValueError("micro_tile entries must be >= 1")
        for n0, n1 in iter_blocks(n, panel_depth):
            panel = data[:, n0:n1]
            for i0, i1 in iter_blocks(m, tr):
                for j0, j1 in iter_blocks(m, tc):
                    if j0 > i1 - 1:
                        continue  # strictly above the diagonal band
                    out[i0:i1, j0:j1] += panel[i0:i1] @ panel[j0:j1].T
        out = np.tril(out)
    return symmetrize_from_triangle(out)


def kernel_matrix_batched(
    data: np.ndarray,
    panel_depth: int | None = None,
    *,
    threads: int | None = None,
) -> np.ndarray:
    """Batched syrk: all ``V`` voxel kernels in one stacked GEMM.

    ``data`` holds every voxel problem's data matrix stacked on a batch
    axis, shape ``(V, M, N)``; the result is the ``(V, M, M)`` stack of
    linear kernels ``data[v] @ data[v].T``.  With ``panel_depth=None``
    (the default) this is one stacked ``np.matmul`` per contiguous
    voxel chunk, the chunks dealt to the engine's thread pool
    (:func:`~repro.core.engine.deal` over
    :func:`~repro.core.engine.thread_budget` threads, or ``threads`` —
    an internal argument for tests); every voxel's product is its own
    BLAS call either way, so the result does not depend on the split.  An
    integer ``panel_depth`` instead accumulates 96-deep panels with
    triangle-only row bands across the whole batch at once, mirroring
    the Fig. 7 walk with the batch axis innermost in each BLAS call.

    Per-voxel slices equal :func:`kernel_matrix_baseline` /
    :func:`kernel_matrix_blocked` outputs up to float32 summation order
    (bitwise for the unblocked path, which issues the identical GEMM per
    slice).

    ``data`` may also be a :class:`repro.core.sparse.SparseCorrelationResult`,
    in which case each voxel's ``(M, N)`` CSR row band is Gram-ed as
    sparse-times-sparse-transpose (:func:`csr_gram_panel`); the dense
    ``(V, M, M)`` kernel stack feeds the batched SMO unchanged, and at
    ``tau=0`` it equals the dense path within float32 tolerance (sparse
    dot products accumulate in a different order).  ``panel_depth`` has
    no meaning there and must stay ``None``.
    """
    from .sparse import SparseCorrelationResult

    if isinstance(data, SparseCorrelationResult):
        if panel_depth is not None:
            raise ValueError("panel_depth does not apply to CSR input")
        n_problems = data.shape[0]
        return csr_gram_panel(data, 0, n_problems)
    data = np.asarray(data)
    if data.ndim != 3:
        raise ValueError(
            f"data must be (problems, samples, features), got {data.shape}"
        )
    data = np.ascontiguousarray(data, dtype=np.float32)
    v, m, n = data.shape
    if panel_depth is None:
        out = np.empty((v, m, m), dtype=np.float32)
        budget = max(1, thread_budget() if threads is None else threads)
        # One chunk inline; otherwise a few per thread, so a slow core
        # ends up with fewer of them.
        n_chunks = 1 if budget == 1 else 4 * budget
        chunks = block_bounds(v, max(1, -(-v // n_chunks)))

        def gram(slot: int, i: int) -> None:
            v0, v1 = chunks[i]
            chunk = data[v0:v1]
            np.matmul(chunk, chunk.transpose(0, 2, 1), out=out[v0:v1])

        deal(len(chunks), budget, gram)
        return out
    if panel_depth < 1:
        raise ValueError("panel_depth must be >= 1")
    out = np.zeros((v, m, m), dtype=np.float32)
    row_band = MICRO_TILE[0]
    for n0, n1 in iter_blocks(n, panel_depth):
        panel = data[:, :, n0:n1]
        panel_t = panel.transpose(0, 2, 1)
        for i0, i1 in iter_blocks(m, row_band):
            out[:, i0:i1, :i1] += panel[:, i0:i1, :] @ panel_t[:, :, :i1]
    return symmetrize_from_triangle(np.tril(out))


def csr_gram_panel(sparse: "Any", start: int, stop: int) -> np.ndarray:
    """Dense Gram kernels for a panel of voxels of a CSR stage-1/2 result.

    ``sparse`` is a :class:`repro.core.sparse.SparseCorrelationResult`
    whose rows are ``(voxel, epoch)`` pairs; for each voxel ``v`` in
    ``[start, stop)`` the ``(M, N)`` CSR band of its ``M`` epoch rows is
    multiplied with its own transpose — sparse times sparse-transpose,
    ``O(nnz)`` per output row instead of ``O(M * N)`` — and densified
    into the ``(stop - start, M, M)`` float32 kernel stack the batched
    SMO consumes.  Panel-wise so callers can balance ragged per-voxel
    nnz across score batches.
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


def symmetrize_from_triangle(lower: np.ndarray) -> np.ndarray:
    """Mirror lower-triangular matrices into full symmetric ones.

    Accepts a single ``(M, M)`` matrix or a stack ``(..., M, M)`` (the
    batched syrk path); the mirror is applied to the last two axes.
    """
    lower = np.asarray(lower)
    if lower.ndim < 2 or lower.shape[-1] != lower.shape[-2]:
        raise ValueError(f"expected square matrices, got {lower.shape}")
    diag = np.diagonal(lower, axis1=-2, axis2=-1).copy()
    full = lower + np.swapaxes(lower, -1, -2)
    idx = np.arange(lower.shape[-1])
    full[..., idx, idx] = diag
    return full
