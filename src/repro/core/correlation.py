"""FCMA stage 1: correlation computation (paper Sections 3.1, 4.2).

Pearson correlation between voxel time courses is reduced to matrix
multiplication by the equation-2 normalization: subtract each epoch
vector's mean and divide by its root sum of squares, after which
``corr(X, Y) = X' . Y'``.  Stage 1 then computes, for every epoch, the
correlations between a task's *assigned* voxels and **all** brain voxels
— a multiplication of a small ``(V, T)`` matrix with a tall-skinny
``(T, N)`` matrix.

Numerically equivalent paths, slowest to fastest:

* :func:`correlate_baseline` — one BLAS gemm per epoch writing straight
  into the voxel-major output (the baseline's ``cblas_sgemm`` with
  ``ldc`` striding).
* :func:`correlate_blocked_reference` — the pre-batching optimized loop
  of Section 4.2: L2-sized tiles, one tiny gemm per epoch per tile,
  optional per-tile callback.  Kept verbatim as the benchmark reference
  for the batched rewrite.
* :func:`correlate_blocked` — same tiling, but each tile computes **all**
  of its epochs in one 3D batched matmul instead of a Python loop.
* :func:`correlate_batched` — the whole task as a single epoch-batched
  matmul ``(E, V, T) @ (E, T, N)`` written straight into the voxel-major
  output through an axis swap.
* :func:`correlate_normalize_batched` — the fused stage-1/2 engine
  (:func:`repro.core.engine.run_engine` with a dense emitter): the same
  batched matmul cut into L2-sized column tiles, each normalized while
  cache-resident and dealt to the engine's thread pool.

Output layout is always **voxel-major**: ``out[v, e, :]`` is voxel ``v``'s
correlation vector for epoch ``e``, i.e. "all correlation vectors
corresponding to a single voxel are contiguous" (Fig. 4).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..data.dataset import FMRIDataset
from ..data.epochs import Epoch
from .engine import DenseEmitter, check_stage1_inputs, run_engine, validate_dense_out
from .normalization import NormalizationWorkspace
from .tiling import iter_blocks

__all__ = [
    "normalize_epoch_data",
    "epoch_windows",
    "correlate_baseline",
    "correlate_batched",
    "correlate_blocked",
    "correlate_blocked_reference",
    "correlate_normalize_batched",
    "iter_blocks",
    "stage1_input_copies",
]


def normalize_epoch_data(epoch_stack: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Equation-2 normalization of raw epoch windows.

    ``epoch_stack`` has shape ``(n_epochs, n_voxels, epoch_len)``.  Each
    voxel's epoch vector is mean-centered and scaled by its root sum of
    squares so that the dot product of two normalized vectors equals
    their Pearson correlation.  Zero-variance vectors are mapped to zero
    (their correlation with anything is defined as 0 rather than NaN).
    """
    epoch_stack = np.asarray(epoch_stack)
    if epoch_stack.ndim != 3:
        raise ValueError(
            f"epoch stack must be (epochs, voxels, time), got {epoch_stack.shape}"
        )
    x = epoch_stack.astype(np.float32, copy=True)
    x -= x.mean(axis=2, keepdims=True)
    norms = np.sqrt((x * x).sum(axis=2, keepdims=True))
    np.divide(x, norms, out=x, where=norms > eps)
    x[np.broadcast_to(norms <= eps, x.shape)] = 0.0
    return x


def epoch_windows(dataset: FMRIDataset, epochs: Sequence[Epoch] | None = None) -> np.ndarray:
    """Equation-2-normalized epoch windows straight from a dataset.

    Shape ``(n_epochs, n_voxels, epoch_len)``; epochs default to the
    dataset's table order.
    """
    return normalize_epoch_data(dataset.epoch_stack(epochs))


#: Input validation shared with the engine (kept under the historical
#: private names for the modules and tests that import them from here).
_check_stage1_inputs = check_stage1_inputs
_validate_out = validate_dense_out


def correlate_baseline(z: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """Baseline stage 1: one gemm per epoch (Section 3.2).

    Parameters
    ----------
    z:
        Equation-2-normalized data, shape ``(n_epochs, n_voxels, t)``.
    assigned:
        Indices of the task's voxels (the ``V`` rows of each gemm).

    Returns
    -------
    Voxel-major correlations, shape ``(V, n_epochs, n_voxels)`` float32.
    """
    z, assigned = _check_stage1_inputs(z, assigned)
    n_epochs, n_voxels, _ = z.shape
    out = np.empty((assigned.size, n_epochs, n_voxels), dtype=np.float32)
    for e in range(n_epochs):
        # A[V, T] @ B[T, N] -> strided write grouping results by voxel,
        # the cblas_sgemm + ldc trick of the baseline implementation.
        np.matmul(z[e, assigned], z[e].T, out=out[:, e, :])
    return out


#: Callback invoked on each finished tile of the blocked path.
#: Arguments: (tile, voxel_block, target_block, epoch_block) where
#: ``tile`` is the float32 view ``out[v0:v1, e0:e1, n0:n1]`` just
#: computed and may be modified in place (merged normalization).
TileCallback = Callable[[np.ndarray, tuple[int, int], tuple[int, int], tuple[int, int]], None]


def stage1_input_copies(z: np.ndarray) -> int:
    """Hidden array copies the batched gemm makes of this input.

    The batched paths feed ``z`` to one 3D gufunc matmul, which silently
    buffer-copies any operand that is not C-contiguous float32.  The
    *output* side is guarded by :func:`_validate_out` (strided or
    float64 ``out`` is rejected outright); the input side is legal but
    costs a full extra pass over the BOLD data.  This predicate is what
    the stage bodies feed the ``stage12_out_copies`` RunContext counter,
    so a trace exposes the copy instead of it hiding inside BLAS setup.
    """
    z = np.asarray(z)
    if z.dtype == np.float32 and z.flags.c_contiguous:
        return 0
    return 1


def correlate_batched(
    z: np.ndarray,
    assigned: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Stage 1 as one epoch-batched 3D matmul (no Python-level loops).

    Computes ``(E, V, T) @ (E, T, N)`` in a single gufunc call; the
    batched gemm writes through an axis-swapped view so the result still
    lands voxel-major ``(V, E, N)`` with no transpose pass.  Replaces
    ``E`` interpreter-dispatched gemms (and their fancy-indexed A-panel
    slices) with one dispatch — the stage-1 analogue of the stage-3
    stacked syrk.
    """
    z, assigned = _check_stage1_inputs(z, assigned)
    n_epochs, n_voxels, _ = z.shape
    shape = (assigned.size, n_epochs, n_voxels)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    else:
        _validate_out(out, shape)
    # A non-contiguous float32 z would be buffer-copied epoch slice by
    # epoch slice inside the gufunc; do the one whole-array copy up
    # front instead (same count, reported by stage1_input_copies).
    if z.dtype == np.float32 and not z.flags.c_contiguous:
        z = np.ascontiguousarray(z)
    # panel: (E, V, T) contiguous copy of the assigned rows; the gufunc
    # broadcasts the batch axis and writes each epoch's (V, N) slab into
    # the strided voxel-major view.
    panel = z[:, assigned]
    np.matmul(panel, z.swapaxes(1, 2), out=out.swapaxes(0, 1))
    return out


def correlate_blocked(
    z: np.ndarray,
    assigned: np.ndarray,
    voxel_block: int = 16,
    target_block: int = 512,
    epoch_block: int | None = None,
    tile_callback: TileCallback | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Optimized stage 1: L2-sized tiles over (voxels x targets x epochs).

    The loop order mirrors Section 4.2: for each tile of ``voxel_block``
    assigned voxels by ``target_block`` brain voxels, all ``epoch_block``
    epochs of the tile are computed before moving on, so the tile is
    still cache-resident when ``tile_callback`` (the merged stage-2
    normalization) runs.  Each tile's epochs are computed in **one**
    batched 3D matmul (``(e, B, T) @ (e, T, B')``) rather than a Python
    loop — see :func:`correlate_blocked_reference` for the pre-batching
    per-epoch loop this replaces.  Results equal
    :func:`correlate_baseline` up to float32 rounding (BLAS may pick
    different accumulation kernels for different tile shapes; each
    output element is still the same mathematical dot product).

    ``epoch_block`` defaults to all epochs; the merged path passes one
    subject's epoch count so a tile holds exactly one normalization
    population.
    """
    z, assigned = _check_stage1_inputs(z, assigned)
    n_epochs, n_voxels, _ = z.shape
    if epoch_block is None:
        epoch_block = n_epochs
    if voxel_block < 1 or target_block < 1 or epoch_block < 1:
        raise ValueError("block sizes must be >= 1")
    shape = (assigned.size, n_epochs, n_voxels)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    else:
        _validate_out(out, shape)

    zt = z.swapaxes(1, 2)  # (E, T, N) view, no copy
    for v0, v1 in iter_blocks(assigned.size, voxel_block):
        # One contiguous (E, B, T) A-panel per voxel block, hoisted out
        # of the epoch/target loops (the reference re-sliced it per
        # epoch per tile).
        panel = z[:, assigned[v0:v1]]
        for e0, e1 in iter_blocks(n_epochs, epoch_block):
            for n0, n1 in iter_blocks(n_voxels, target_block):
                tile = out[v0:v1, e0:e1, n0:n1]
                np.matmul(
                    panel[e0:e1], zt[e0:e1, :, n0:n1], out=tile.swapaxes(0, 1)
                )
                if tile_callback is not None:
                    tile_callback(tile, (v0, v1), (n0, n1), (e0, e1))
    return out


def correlate_blocked_reference(
    z: np.ndarray,
    assigned: np.ndarray,
    voxel_block: int = 16,
    target_block: int = 512,
    epoch_block: int | None = None,
    tile_callback: TileCallback | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The pre-batching blocked loop: one tiny gemm per epoch per tile.

    Preserved verbatim as the reference the batched rewrite is measured
    against (``benchmarks/test_batched_stage12.py``) and as a bitwise
    anchor for the tiling semantics.  Use :func:`correlate_blocked` for
    real work.
    """
    z, assigned = _check_stage1_inputs(z, assigned)
    n_epochs, n_voxels, _ = z.shape
    if epoch_block is None:
        epoch_block = n_epochs
    if voxel_block < 1 or target_block < 1 or epoch_block < 1:
        raise ValueError("block sizes must be >= 1")
    shape = (assigned.size, n_epochs, n_voxels)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    else:
        _validate_out(out, shape)

    for v0, v1 in iter_blocks(assigned.size, voxel_block):
        rows = assigned[v0:v1]
        for e0, e1 in iter_blocks(n_epochs, epoch_block):
            for n0, n1 in iter_blocks(n_voxels, target_block):
                tile = out[v0:v1, e0:e1, n0:n1]
                for e in range(e0, e1):
                    np.matmul(
                        z[e, rows], z[e, n0:n1].T, out=tile[:, e - e0, :]
                    )
                if tile_callback is not None:
                    tile_callback(tile, (v0, v1), (n0, n1), (e0, e1))
    return out


def correlate_normalize_batched(
    z: np.ndarray,
    assigned: np.ndarray,
    epochs_per_subject: int,
    voxel_sweep: int | None = None,
    out: np.ndarray | None = None,
    workspace: NormalizationWorkspace | None = None,
) -> tuple[np.ndarray, int]:
    """Fused batched stage 1/2 of one task, dense output.

    A thin shim over the tiled engine with a
    :class:`~repro.core.engine.DenseEmitter`: the task is cut into
    L2-sized column tiles, each gemm-ed, normalized in cache and copied
    into ``out``.  ``voxel_sweep`` is the blocking planner's ``B``
    (``plan_blocks`` chooses it, the autotuner measures it); it scales
    the tile, never the result.

    Normalized values are bitwise-equal to running
    ``normalize_separated`` on :func:`correlate_batched`'s whole-task
    gemm, for any tile width and thread budget (pinned by
    ``tests/core/test_stage12_equivalence.py``).

    Returns ``(out, n_tiles)`` where ``n_tiles`` is the number of column
    tiles walked (the ``stage12_tiles`` RunContext counter).
    """
    emitter = DenseEmitter(voxel_sweep=voxel_sweep, out=out)
    result: tuple[np.ndarray, int] = run_engine(
        z, assigned, epochs_per_subject, emitter, workspace=workspace
    )
    return result
