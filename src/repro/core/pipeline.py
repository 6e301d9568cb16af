"""Configuration and task-invariant preprocessing of the three-stage
FCMA pipeline (Sections 3.1.2, 4).

What a single worker does for one task — correlate the assigned voxels
for every epoch (stage 1), normalize (stage 2), score each voxel by SVM
cross-validation (stage 3) — is
:func:`repro.exec.stage_graph.execute_task`.  This module holds what
every task of a run shares:

:class:`FCMAConfig` selects between the *baseline* implementation
(per-epoch gemm, separated normalization, LibSVM-like solver — Section
3.2), kept as the oracle, and the *optimized* one (the tiled engine:
L2-sized tiles normalized while resident, batched syrk, PhiSVM —
Section 4); both produce the same voxel ranking.
:func:`preprocess_dataset` memoizes the subject-contiguous regrouping
and the equation-2 normalized epoch windows.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

import numpy as np

from ..data.dataset import FMRIDataset
from .correlation import epoch_windows
from .voxel_selection import DEFAULT_BATCH_VOXELS

__all__ = [
    "FCMAConfig",
    "preprocess_dataset",
    "clear_preprocess_cache",
]

#: Pipeline variant / SVM backend names: the keys of the fixed tables in
#: :mod:`repro.exec.registry` (``VARIANTS`` / ``BACKENDS``).
Variant = str
Backend = str

#: Engine emitter each engine-backed variant's walk materializes
#: through (``resolved_emitter``); ``baseline`` never touches the engine.
_VARIANT_EMITTERS = {
    "optimized": "dense",
    "optimized-batched": "dense",
    "sparse-batched": "csr",
}


@dataclass(frozen=True)
class FCMAConfig:
    """Knobs of the single-worker pipeline.

    ``variant`` is the one dispatch axis; the engine emitter and the
    default SVM backend are derived from it.  Two pipelines exist:
    ``optimized`` (the default, the paper's Section 4 — the tiled
    engine with a dense emitter; ``optimized-batched`` is an accepted
    spelling of the same pipeline) and ``baseline`` (the Section 3.2
    implementation in all three stages, LibSVM-like solver unless
    ``svm_backend`` overrides it), kept as the oracle.
    ``sparse-batched`` is the optimized engine materializing CSR
    (``threshold``/``top_k``) instead of a dense array.

    How work is carved is derived, not configured here beyond
    ``task_voxels`` / ``target_block``: the 2-D runtime's tile width
    (``exec.partition.tile_cols_for``) and the dense engine's walk
    (``core.engine.GramEmitter``: the Gram rule's chunks, each gemm
    issued in ``core.engine.gemm_block_cols`` columns; no knob).
    """

    variant: Variant = "optimized"
    #: SVM backend; None picks the variant's native one (PhiSVM for
    #: optimized, LibSVM-like for baseline).
    svm_backend: Backend | None = None
    svm_c: float = 1.0
    svm_tol: float = 1e-3
    #: Assigned voxels per worker task (120 for face-scene in the paper).
    task_voxels: int = 120
    #: Planner block the 2-D tiled runtime sizes its column tiles in
    #: multiples of (``exec.partition.tile_cols_for``).
    target_block: int = 512
    #: Folds for single-subject (online) CV, used when the dataset has
    #: only one subject and LOSO is impossible.
    online_folds: int = 4
    #: Voxels per stage-3 score block (one multi-problem SMO call over
    #: their voxels x folds problems); the width never shows in the
    #: scores.  Backends without a batched trainer score per voxel.
    batch_voxels: int = DEFAULT_BATCH_VOXELS
    #: ``sparse-batched`` only: keep normalized correlations with
    #: ``|value| >= threshold`` (mutually exclusive with ``top_k``;
    #: exactly one is required by that variant, rejected elsewhere).
    threshold: float | None = None
    #: ``sparse-batched`` only: keep the k strongest correlations per
    #: (voxel, epoch) row.
    top_k: int | None = None
    #: Seconds before a blocked communicator receive aborts.
    #: ``None`` falls back to the ``FCMA_COMM_TIMEOUT`` environment
    #: variable, then 120 s (see :func:`repro.parallel.comm.default_timeout`).
    comm_timeout: float | None = None

    def __post_init__(self) -> None:
        from ..exec.registry import BACKENDS, VARIANTS

        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose from "
                f"{', '.join(VARIANTS)}"
            )
        if self.svm_backend is not None and self.svm_backend not in BACKENDS:
            raise ValueError(
                f"unknown svm_backend {self.svm_backend!r}; choose from "
                f"{', '.join(BACKENDS)}"
            )
        if self.svm_c <= 0 or self.svm_tol <= 0:
            raise ValueError("svm_c and svm_tol must be positive")
        if self.task_voxels < 1:
            raise ValueError("task_voxels must be >= 1")
        if self.target_block < 1:
            raise ValueError("target_block must be >= 1")
        if self.online_folds < 2:
            raise ValueError("online_folds must be >= 2")
        if self.batch_voxels < 1:
            raise ValueError("batch_voxels must be >= 1")
        if self.threshold is not None and not self.threshold >= 0.0:
            raise ValueError("threshold must be >= 0")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.comm_timeout is not None and not self.comm_timeout > 0:
            raise ValueError("comm_timeout must be positive (or None for auto)")
        if self.threshold is not None and self.top_k is not None:
            raise ValueError("threshold and top_k are mutually exclusive")
        sparse_mode = self.threshold is not None or self.top_k is not None
        if self.variant == "sparse-batched" and not sparse_mode:
            raise ValueError(
                "variant 'sparse-batched' requires threshold or top_k"
            )
        if sparse_mode and self.variant != "sparse-batched":
            raise ValueError(
                "threshold/top_k only apply to variant 'sparse-batched'"
            )

    def resolved_emitter(self) -> str | None:
        """The engine emitter the variant materializes through:
        ``dense`` for ``optimized`` / ``optimized-batched``, ``csr`` for
        ``sparse-batched``, ``None`` for ``baseline``, which never
        touches the tiled engine.
        """
        return _VARIANT_EMITTERS.get(self.variant)

    def resolved_backend(self) -> Backend:
        """The backend actually used, resolving the variant default."""
        if self.svm_backend is not None:
            return self.svm_backend
        return "libsvm" if self.variant == "baseline" else "phisvm"

    def with_variant(self, variant: Variant) -> "FCMAConfig":
        """Copy with a different variant (backend default re-resolves)."""
        return replace(self, variant=variant)


# Task-invariant preprocessing (subject-contiguous regrouping + eq.-2
# normalized epoch windows) cached per dataset *identity*: every task of
# a voxel-selection run shares the same dataset object, so serial and
# parallel drivers pay the O(epochs x voxels x time) preprocessing once
# instead of once per task.  Weak keys let datasets be garbage collected.
_PREPROCESS_CACHE: "weakref.WeakKeyDictionary[FMRIDataset, tuple[FMRIDataset, np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)


def preprocess_dataset(dataset: FMRIDataset) -> tuple[FMRIDataset, np.ndarray]:
    """Subject-grouped dataset + normalized epoch windows, memoized.

    Returns ``(grouped_dataset, z)`` where ``z`` is the equation-2
    normalized epoch stack of the grouped dataset.  Cached by dataset
    identity; treat both returns as read-only.
    """
    hit = _PREPROCESS_CACHE.get(dataset)
    if hit is None:
        ds = dataset.grouped_by_subject()
        hit = (ds, epoch_windows(ds))
        _PREPROCESS_CACHE[dataset] = hit
    return hit


def clear_preprocess_cache() -> None:
    """Drop all memoized preprocessing (e.g. after mutating BOLD data)."""
    _PREPROCESS_CACHE.clear()
