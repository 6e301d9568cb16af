"""FCMA stage 3a: SVM kernel matrix precomputation (Section 4.4, Fig. 7).

For each voxel the linear-kernel matrix of its ``(M, N)`` correlation
data matrix is ``C = A A^T`` — a symmetric rank-k update with a very
large ``N`` ("syrk" in BLAS terms).  Precomputing it shrinks a voxel's
working set from an ``M x N`` data matrix (~60 MB at paper scale) to an
``M x M`` kernel (~160 KB), which is what lets the optimized pipeline
keep 240+ voxel problems resident on the coprocessor.

Two implementations are provided:

* :func:`kernel_matrix_baseline` — one BLAS call per voxel: the
  ``baseline`` pipeline's syrk, and what the per-voxel fallback of
  stage 3 (multiclass, LibSVM, ``batch_voxels=0``) always uses.
* :func:`kernel_matrix_batched` — **all V voxel kernels at once** as a
  stacked ``(V, M, N) @ (V, N, M)`` GEMM, the batch axis that keeps many
  voxel problems in flight the way the paper keeps 240+ problems
  resident on the coprocessor.  CSR input is Gram-ed per voxel by
  :func:`csr_gram_panel`.

The dense pair is bitwise equal: every slice of the stacked GEMM is the
identical per-voxel BLAS call.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .engine import deal, thread_budget
from .tiling import block_bounds

__all__ = [
    "csr_gram_panel",
    "kernel_matrix_baseline",
    "kernel_matrix_batched",
]


def kernel_matrix_baseline(data: np.ndarray) -> np.ndarray:
    """Baseline syrk: one BLAS call ``A A^T`` (``cblas_ssyrk``)."""
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"data must be (samples, features), got {data.shape}")
    data = np.ascontiguousarray(data, dtype=np.float32)
    return data @ data.T


def kernel_matrix_batched(
    data: np.ndarray,
    *,
    threads: int | None = None,
) -> np.ndarray:
    """Batched syrk: all ``V`` voxel kernels in one stacked GEMM.

    ``data`` holds every voxel problem's data matrix stacked on a batch
    axis, shape ``(V, M, N)``; the result is the ``(V, M, M)`` stack of
    linear kernels ``data[v] @ data[v].T``: one stacked ``np.matmul``
    per contiguous voxel chunk, the chunks dealt to the engine's thread
    pool (:func:`~repro.core.engine.deal` over
    :func:`~repro.core.engine.thread_budget` threads, or ``threads`` —
    an internal argument for tests).  Every voxel's product is its own
    BLAS call either way, so the result does not depend on the split
    and each slice is bitwise-equal to :func:`kernel_matrix_baseline`.

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
