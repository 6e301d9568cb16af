"""FCMA stage 1: correlation computation (paper Sections 3.1, 4.2).

Pearson correlation between voxel time courses is reduced to matrix
multiplication by the equation-2 normalization: subtract each epoch
vector's mean and divide by its root sum of squares, after which
``corr(X, Y) = X' . Y'``.  :func:`epoch_windows` makes that input once
per dataset, one compiled pass per epoch window read in place from the
subject's BOLD (the numpy body is the fallback and the bitwise
oracle).  Stage 1 then computes, for every epoch, the
correlations between a task's *assigned* voxels and **all** brain voxels
— a multiplication of a small ``(V, T)`` matrix with a tall-skinny
``(T, N)`` matrix.

Two stage-1 kernels live here, numerically equivalent:

* :func:`correlate_baseline` — one BLAS gemm per epoch writing straight
  into the voxel-major output (the baseline's ``cblas_sgemm`` with
  ``ldc`` striding).  Stage 1 of the ``baseline`` pipeline, the oracle.
* :func:`correlate_batched` — the whole task as a single epoch-batched
  matmul ``(E, V, T) @ (E, T, N)`` written straight into the voxel-major
  output through an axis swap.  The *bitwise* reference for the
  optimized pipeline: :func:`repro.core.engine.run_engine` cuts this
  same matmul into L2-sized column tiles, normalizes each while
  cache-resident and deals them to its thread pool, and any column
  tiling returns these bits.

Output layout is always **voxel-major**: ``out[v, e, :]`` is voxel ``v``'s
correlation vector for epoch ``e``, i.e. "all correlation vectors
corresponding to a single voxel are contiguous" (Fig. 4).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .. import native
from ..data.dataset import FMRIDataset
from ..data.epochs import Epoch
from .engine import check_stage1_inputs, validate_dense_out
from .normalization import _float32_bound

__all__ = [
    "normalize_epoch_data",
    "epoch_windows",
    "windows_body",
    "correlate_baseline",
    "correlate_batched",
    "stage1_input_copies",
]


#: Longest window the native body normalizes: numpy sums a row of at
#: most this many values in one pairwise block (``PW_BLOCKSIZE``), and
#: splits a longer one recursively, which the numpy body alone does.
_PAIRWISE_BLOCK = 128


def normalize_epoch_data(epoch_stack: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Equation-2 normalization of raw epoch windows.

    ``epoch_stack`` has shape ``(n_epochs, n_voxels, epoch_len)``.  Each
    voxel's epoch vector is mean-centered and scaled by its root sum of
    squares so that the dot product of two normalized vectors equals
    their Pearson correlation.  Zero-variance vectors — a norm ``<=
    eps``, or ``epoch_len`` copies of one finite value — are mapped to
    zero (their correlation with anything is defined as 0 rather than
    NaN).  A vector holding NaN or Inf is not constant: its NaNs
    propagate.

    A float32 stack whose rows are contiguous goes through the compiled
    ``normalize_windows`` (:mod:`repro.native`), one call per epoch;
    anything else, rows of more than 128 values, and a process without
    the library run the numpy body, :func:`_normalize_epoch_data_numpy`.
    Both give the same bits.
    """
    epoch_stack = np.asarray(epoch_stack)
    if epoch_stack.ndim != 3:
        raise ValueError(
            f"epoch stack must be (epochs, voxels, time), got {epoch_stack.shape}"
        )
    windows = list(epoch_stack)
    lib = _native_body(windows, epoch_stack.shape)
    if lib is None:
        return _normalize_epoch_data_numpy(epoch_stack, eps)
    return _normalize_windows(lib, windows, epoch_stack.shape, eps)


def epoch_windows(
    dataset: FMRIDataset,
    epochs: Sequence[Epoch] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Equation-2-normalized epoch windows straight from a dataset.

    Shape ``(n_epochs, n_voxels, epoch_len)``; epochs default to the
    dataset's table order.  Bitwise
    ``normalize_epoch_data(dataset.epoch_stack(epochs))``, but the
    native body reads each window in place from its subject's BOLD, so
    the one output is the only array made.  ``out`` (C-contiguous
    float32 of that shape) receives the windows instead of a new array
    — a shared mapping the master's local ranks read.
    """
    table = list(dataset.epochs) if epochs is None else list(epochs)
    windows = [dataset.epoch_matrix(e) for e in table]
    lengths = {e.length for e in table}
    if len(lengths) == 1:
        shape = (len(table), dataset.n_voxels, lengths.pop())
        if out is not None:
            validate_dense_out(out, shape)
        lib = _native_body(windows, shape)
        if lib is not None:
            return _normalize_windows(lib, windows, shape, 1e-12, out)
    stack = normalize_epoch_data(dataset.epoch_stack(table))
    if out is None:
        return stack
    out[...] = stack
    return out


def windows_body(epoch_length: int) -> str:
    """Which body :func:`epoch_windows` runs on a dataset's windows of
    ``epoch_length`` TRs: ``"native"`` or ``"numpy"``."""
    native_ok = 1 <= epoch_length <= _PAIRWISE_BLOCK
    return "native" if native_ok and native.solver() is not None else "numpy"


def _native_body(windows: list[np.ndarray], shape: tuple[int, ...]) -> Any:
    """The library if every window is a float32 ``shape[1:]`` array with
    contiguous rows and a row is one pairwise block, else ``None``."""
    t = shape[2]
    if not 1 <= t <= _PAIRWISE_BLOCK:
        return None
    for w in windows:
        if not (
            w.dtype == np.float32
            and w.shape == shape[1:]
            and w.flags.aligned
            and (t == 1 or w.strides[1] == 4)
            and w.strides[0] % 4 == 0
        ):
            return None
    return native.solver()


def _normalize_windows(
    lib: Any,
    windows: list[np.ndarray],
    shape: tuple[int, int, int],
    eps: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One ``normalize_windows`` call per epoch into one new stack, on
    the calling thread: dealing the epochs to the engine's threads was
    no faster on two vCPUs and started a Python thread per call, under
    which a process's peak RSS spread six times wider
    (docs/perf-models.md, Stage 1 input)."""
    _, n, t = shape
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    bound = _float32_bound(eps)
    base, step = out.ctypes.data, n * t * out.itemsize
    for e, w in enumerate(windows):
        lib.normalize_windows(
            w.ctypes.data, w.strides[0] // 4, n, t, bound, base + e * step
        )
    return out


def _normalize_epoch_data_numpy(
    epoch_stack: np.ndarray, eps: float = 1e-12
) -> np.ndarray:
    """:func:`normalize_epoch_data` through its numpy body, always: the
    fallback, and the bitwise oracle of the native body."""
    x = epoch_stack.astype(np.float32, copy=True)
    # Equal values sum to a mean that need not round back to them; the
    # centred row is then ulps, not zeros, and would scale to +-1/sqrt(t).
    first = x[:, :, :1]
    constant = (x == first).all(axis=2, keepdims=True) & np.isfinite(first)
    x -= x.mean(axis=2, keepdims=True)
    norms = np.sqrt((x * x).sum(axis=2, keepdims=True))
    np.divide(x, norms, out=x, where=norms > eps)
    x[np.broadcast_to((norms <= eps) | constant, x.shape)] = 0.0
    return x


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
    z, assigned = check_stage1_inputs(z, assigned)
    n_epochs, n_voxels, _ = z.shape
    out = np.empty((assigned.size, n_epochs, n_voxels), dtype=np.float32)
    for e in range(n_epochs):
        # A[V, T] @ B[T, N] -> strided write grouping results by voxel,
        # the cblas_sgemm + ldc trick of the baseline implementation.
        np.matmul(z[e, assigned], z[e].T, out=out[:, e, :])
    return out


def stage1_input_copies(z: np.ndarray) -> int:
    """Hidden array copies the batched gemm makes of this input.

    The batched paths feed ``z`` to one 3D gufunc matmul, which silently
    buffer-copies any operand that is not C-contiguous float32.  The
    *output* side is guarded by :func:`~repro.core.engine.validate_dense_out` (strided or
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
    z, assigned = check_stage1_inputs(z, assigned)
    n_epochs, n_voxels, _ = z.shape
    shape = (assigned.size, n_epochs, n_voxels)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    else:
        validate_dense_out(out, shape)
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
