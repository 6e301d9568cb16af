"""Kernel functions for the SVM backends.

FCMA uses the linear kernel exclusively (Section 3.1: "we use linear SVM
to avoid overfitting" on ~35,000-dimensional correlation vectors with a
few hundred samples), but the solver is kernel-agnostic, so the standard
alternatives are provided for completeness and for tests that need
non-linear separability.
"""

from __future__ import annotations

import numpy as np

__all__ = ["linear_kernel", "polynomial_kernel", "rbf_kernel", "validate_kernel_matrix"]


def linear_kernel(x: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix ``X Z^T`` (or ``X X^T``), in X's floating dtype.

    This is exactly the paper's kernel-precompute stage reduced to one
    BLAS call; the batched equivalent lives in
    :func:`repro.core.kernels.kernel_matrix_batched`.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"x must be 2D (samples, features), got {x.shape}")
    if z is None:
        return x @ x.T
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[1] != x.shape[1]:
        raise ValueError(
            f"z must be 2D with {x.shape[1]} features, got {z.shape}"
        )
    return x @ z.T


def polynomial_kernel(
    x: np.ndarray,
    z: np.ndarray | None = None,
    degree: int = 3,
    gamma: float | None = None,
    coef0: float = 1.0,
) -> np.ndarray:
    """``(gamma <x, z> + coef0) ** degree``; gamma defaults to 1/n_features."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    base = linear_kernel(x, z)
    g = 1.0 / x.shape[1] if gamma is None else gamma
    return (g * base + coef0) ** degree


def rbf_kernel(
    x: np.ndarray, z: np.ndarray | None = None, gamma: float | None = None
) -> np.ndarray:
    """``exp(-gamma ||x - z||^2)``; gamma defaults to 1/n_features."""
    x = np.asarray(x, dtype=np.float64)
    zz = x if z is None else np.asarray(z, dtype=np.float64)
    if zz.ndim != 2 or zz.shape[1] != x.shape[1]:
        raise ValueError("z must be 2D with matching feature count")
    g = 1.0 / x.shape[1] if gamma is None else gamma
    if g <= 0:
        raise ValueError("gamma must be positive")
    sq_x = (x * x).sum(axis=1)[:, None]
    sq_z = (zz * zz).sum(axis=1)[None, :]
    d2 = np.maximum(sq_x + sq_z - 2.0 * (x @ zz.T), 0.0)
    return np.exp(-g * d2)


def validate_kernel_matrix(kernel: np.ndarray, atol: float = 1e-4) -> np.ndarray:
    """Check a precomputed kernel is square, finite, and symmetric.

    Returns the validated array (no copy).  A loose symmetry tolerance is
    used because float32 syrk-style accumulation is not bitwise
    symmetric.
    """
    kernel = np.asarray(kernel)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ValueError(f"kernel must be square, got shape {kernel.shape}")
    if not np.isfinite(kernel).all():
        raise ValueError("kernel contains non-finite values")
    scale = max(float(np.abs(kernel).max()), 1.0)
    if not np.allclose(kernel, kernel.T, atol=atol * scale):
        raise ValueError("kernel matrix is not symmetric")
    return kernel
