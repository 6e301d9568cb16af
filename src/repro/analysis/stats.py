"""Statistical helpers for voxel accuracies.

FCMA ranks voxels by cross-validated accuracy; these helpers put error
bars on that: binomial significance of a single voxel's accuracy against
chance, and multiple-comparison control across the whole brain (a brain
has tens of thousands of voxels, so some will look accurate by luck —
exactly why the paper validates selections across folds).
"""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy_p_value", "significant_voxels", "benjamini_hochberg"]


def accuracy_p_value(accuracy: float, n_samples: int, chance: float = 0.5) -> float:
    """One-sided binomial p-value of an accuracy against chance."""
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError("accuracy must be in [0, 1]")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 < chance < 1.0:
        raise ValueError("chance must be in (0, 1)")
    # Imported at its one use: scipy.stats costs ~0.3 s, which every
    # process importing the package (each spawned TCP worker) would pay.
    from scipy import stats

    successes = int(round(accuracy * n_samples))
    result = stats.binomtest(successes, n_samples, chance, alternative="greater")
    return float(result.pvalue)


def benjamini_hochberg(p_values: np.ndarray, alpha: float = 0.05) -> np.ndarray:
    """Benjamini-Hochberg FDR control; returns a boolean reject mask."""
    p = np.asarray(p_values, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p_values must be a non-empty 1D array")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    order = np.argsort(p)
    ranked = p[order]
    n = p.size
    thresholds = alpha * (np.arange(1, n + 1) / n)
    below = ranked <= thresholds
    reject = np.zeros(n, dtype=bool)
    if below.any():
        cutoff = int(np.nonzero(below)[0].max())
        reject[order[: cutoff + 1]] = True
    return reject


def significant_voxels(
    accuracies: np.ndarray,
    n_samples: int,
    chance: float = 0.5,
    alpha: float = 0.05,
) -> np.ndarray:
    """Indices of voxels whose accuracy beats chance at FDR ``alpha``."""
    accuracies = np.asarray(accuracies, dtype=np.float64)
    p = np.array(
        [accuracy_p_value(a, n_samples, chance) for a in accuracies]
    )
    return np.nonzero(benjamini_hochberg(p, alpha))[0]
