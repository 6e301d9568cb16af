"""Dataset presets mirroring the paper's Table 2.

Two kinds of objects live here:

* :class:`DatasetSpec` — the pure *geometry* of a dataset (voxels,
  subjects, epochs, epoch length).  The performance models in
  :mod:`repro.perf` and the cluster simulator consume geometry only, so
  they run at full paper scale (34,470 voxels) without materializing data.
* Scaled synthetic configs — runnable stand-ins preserving the datasets'
  shape ratios at a size where the numeric pipeline finishes in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .synthetic import SyntheticConfig

__all__ = [
    "DatasetSpec",
    "FACE_SCENE",
    "ATTENTION",
    "SPARSE_100K",
    "face_scene_scaled",
    "attention_scaled",
    "quickstart_config",
    "sparse_100k_config",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Geometry of an fMRI dataset (paper Table 2)."""

    name: str
    n_voxels: int
    n_subjects: int
    n_epochs: int
    epoch_length: int
    n_conditions: int = 2

    def __post_init__(self) -> None:
        if self.n_epochs % self.n_subjects != 0:
            raise ValueError(
                f"{self.name}: n_epochs {self.n_epochs} not divisible by "
                f"n_subjects {self.n_subjects}"
            )

    @property
    def epochs_per_subject(self) -> int:
        """Epochs contributed by each subject (``E`` in Fig. 4)."""
        return self.n_epochs // self.n_subjects

    @property
    def training_epochs_loso(self) -> int:
        """Epochs in a leave-one-subject-out training set.

        E.g. face-scene: 216 epochs, 18 subjects -> 204 training samples,
        the ``M = 204`` of the paper's Section 5.4.2 syrk shapes.
        """
        return self.n_epochs - self.epochs_per_subject

    def bold_bytes(self, dtype_bytes: int = 4, duty_cycle: float = 1.0) -> int:
        """Approximate bytes of BOLD data (epoch windows only by default)."""
        return int(
            self.n_voxels
            * self.n_epochs
            * self.epoch_length
            * dtype_bytes
            / max(duty_cycle, 1e-9)
        )

    def correlation_bytes(self, n_assigned: int, dtype_bytes: int = 4) -> int:
        """Bytes of correlation vectors for ``n_assigned`` voxels' task."""
        return n_assigned * self.n_epochs * self.n_voxels * dtype_bytes


#: The *face-scene* dataset of Table 2: 18 subjects passively viewing
#: face or scene images.
FACE_SCENE = DatasetSpec(
    name="face-scene",
    n_voxels=34_470,
    n_subjects=18,
    n_epochs=216,
    epoch_length=12,
)

#: The *attention* dataset of Table 2: 30 subjects attending left/right.
ATTENTION = DatasetSpec(
    name="attention",
    n_voxels=25_260,
    n_subjects=30,
    n_epochs=540,
    epoch_length=12,
)


#: Stress geometry for the sparse stage-1/2 backend: ~3x the voxel count
#: of face-scene, few subjects so the dense correlation buffer (V*E*N
#: float32 = 9.6 GB at E=24) cannot fit in a 2 GB budget while the 1%
#: sparse output (~1 GB CSR at top-k 1000) can.
SPARSE_100K = DatasetSpec(
    name="sparse-100k",
    n_voxels=100_000,
    n_subjects=3,
    n_epochs=24,
    epoch_length=12,
)


def face_scene_scaled(
    n_voxels: int = 1200, n_subjects: int = 6, seed: int = 2015
) -> SyntheticConfig:
    """face-scene surrogate: 12 epochs/subject, epoch length 12.

    Keeps the per-subject epoch count and epoch length of the real
    dataset while shrinking voxels/subjects so the full nested
    cross-validation runs quickly.
    """
    return SyntheticConfig(
        n_voxels=n_voxels,
        n_subjects=n_subjects,
        epochs_per_subject=FACE_SCENE.epochs_per_subject,
        epoch_length=FACE_SCENE.epoch_length,
        n_informative=max(20, n_voxels // 25),
        n_groups=4,
        seed=seed,
        name="face-scene-scaled",
    )


def attention_scaled(
    n_voxels: int = 900, n_subjects: int = 8, seed: int = 2016
) -> SyntheticConfig:
    """attention surrogate: 18 epochs/subject, epoch length 12."""
    return SyntheticConfig(
        n_voxels=n_voxels,
        n_subjects=n_subjects,
        epochs_per_subject=ATTENTION.epochs_per_subject,
        epoch_length=ATTENTION.epoch_length,
        n_informative=max(20, n_voxels // 25),
        n_groups=4,
        seed=seed,
        name="attention-scaled",
    )


def sparse_100k_config(
    n_voxels: int = SPARSE_100K.n_voxels, seed: int = 2026
) -> SyntheticConfig:
    """sparse-100k at full geometry: the <2 GB RSS target of the sparse
    stage-1/2 backend (``benchmarks/test_sparse_stage12.py``,
    ``TestSparse100kMemory``) materializes this preset.

    Only stage 1/2 is meant to run at this size; the nested
    cross-validation would be prohibitively slow on all 100k voxels.
    """
    return SyntheticConfig(
        n_voxels=n_voxels,
        n_subjects=SPARSE_100K.n_subjects,
        epochs_per_subject=SPARSE_100K.epochs_per_subject,
        epoch_length=SPARSE_100K.epoch_length,
        n_informative=max(20, min(n_voxels // 25, 400)),
        n_groups=4,
        seed=seed,
        name="sparse-100k",
    )


def quickstart_config(seed: int = 7) -> SyntheticConfig:
    """Tiny config for examples and smoke tests (runs in ~a second)."""
    return SyntheticConfig(
        n_voxels=300,
        n_subjects=4,
        epochs_per_subject=8,
        epoch_length=12,
        n_informative=24,
        n_groups=3,
        seed=seed,
        name="quickstart",
    )
