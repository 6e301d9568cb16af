"""Cluster workload descriptions for the FCMA analyses.

A :class:`Workload` captures what the master has to get done: a one-time
dataset distribution, then a sequence of *folds* (the outer loop of the
nested cross-validation for offline analysis; a single fold for online
voxel selection), each consisting of independent tasks.

Builders mirror the paper's two experiments:

* :func:`offline_workload` — nested leave-one-subject-out n-fold CV
  (Table 3): one fold per subject, each fold re-running voxel selection
  over all tasks.
* :func:`online_workload` — single-subject voxel selection (Table 4):
  one fold, single subject's data.

:func:`measured_workload` is the third source: the per-task seconds a
real run recorded (``RunContext.task_seconds``), replayed as one fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..data.presets import DatasetSpec
from ..exec.partition import n_tasks as _partition_n_tasks

__all__ = [
    "TaskSpec",
    "FoldSpec",
    "Workload",
    "measured_workload",
    "offline_workload",
    "online_workload",
]


@dataclass(frozen=True)
class TaskSpec:
    """One unit of master-assignable work."""

    #: Worker compute time in seconds.
    compute_seconds: float
    #: Bytes of the task assignment message (voxel indices).
    task_bytes: int = 1024
    #: Bytes of the result message (per-voxel accuracies).
    result_bytes: int = 1024

    def __post_init__(self) -> None:
        if self.compute_seconds < 0:
            raise ValueError("compute_seconds must be >= 0")
        if self.task_bytes < 0 or self.result_bytes < 0:
            raise ValueError("message sizes must be >= 0")


@dataclass(frozen=True)
class FoldSpec:
    """One fold: a bag of independent tasks plus serial master work."""

    tasks: tuple[TaskSpec, ...]
    #: Serial master-side seconds at fold end (aggregation/sort, final
    #: classifier training in the offline analysis).
    serial_seconds: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a fold needs at least one task")
        if self.serial_seconds < 0:
            raise ValueError("serial_seconds must be >= 0")

    @property
    def compute_seconds_total(self) -> float:
        """Sum of task compute times (the fold's ideal parallel work)."""
        return sum(t.compute_seconds for t in self.tasks)


@dataclass(frozen=True)
class Workload:
    """Everything the cluster must execute for one analysis run."""

    name: str
    #: Bytes of brain data distributed to every worker once, up front.
    dataset_bytes: int
    folds: tuple[FoldSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.dataset_bytes < 0:
            raise ValueError("dataset_bytes must be >= 0")
        if not self.folds:
            raise ValueError("a workload needs at least one fold")

    @property
    def total_compute_seconds(self) -> float:
        """All task compute time — the scaling curve's numerator."""
        return sum(f.compute_seconds_total for f in self.folds)

    @property
    def n_tasks(self) -> int:
        """Total tasks across folds."""
        return sum(len(f.tasks) for f in self.folds)


def _n_tasks(spec: DatasetSpec, task_voxels: int) -> int:
    # Same carve as the real executors: one partition helper for all.
    return _partition_n_tasks(spec.n_voxels, task_voxels)


def offline_workload(
    spec: DatasetSpec,
    task_seconds: float,
    task_voxels: int,
    serial_seconds_per_fold: float = 0.2,
) -> Workload:
    """Nested LOSO workload: ``n_subjects`` folds of full voxel selection.

    ``task_seconds`` is the three-stage time of one ``task_voxels`` task
    on one coprocessor (supplied by the perf models or measured).  The
    full dataset (epoch windows, float32) is distributed once.
    """
    if task_seconds <= 0:
        raise ValueError("task_seconds must be positive")
    n = _n_tasks(spec, task_voxels)
    result_bytes = task_voxels * 8  # one float accuracy per voxel
    fold = FoldSpec(
        tasks=tuple(
            TaskSpec(task_seconds, result_bytes=result_bytes) for _ in range(n)
        ),
        serial_seconds=serial_seconds_per_fold,
        label="outer-fold",
    )
    return Workload(
        name=f"offline/{spec.name}",
        dataset_bytes=spec.bold_bytes(),
        folds=tuple(fold for _ in range(spec.n_subjects)),
    )


def online_workload(
    spec: DatasetSpec,
    task_seconds: float,
    task_voxels: int,
    serial_seconds: float = 0.05,
) -> Workload:
    """Single-subject voxel-selection workload (one fold).

    Only the scanned subject's data (1/n_subjects of the dataset) is
    distributed; per-task times are far smaller than offline because a
    single subject contributes E epochs rather than the full M.
    """
    if task_seconds <= 0:
        raise ValueError("task_seconds must be positive")
    n = _n_tasks(spec, task_voxels)
    fold = FoldSpec(
        tasks=tuple(
            TaskSpec(task_seconds, result_bytes=task_voxels * 8)
            for _ in range(n)
        ),
        serial_seconds=serial_seconds,
        label="online-selection",
    )
    return Workload(
        name=f"online/{spec.name}",
        dataset_bytes=spec.bold_bytes() // spec.n_subjects,
        folds=(fold,),
    )


def measured_workload(
    task_seconds: Sequence[float],
    dataset_bytes: int,
    result_bytes: int = 1024,
) -> Workload:
    """One-fold workload whose tasks cost what a real run measured.

    ``task_seconds`` is a finished run's ``ctx.task_seconds``;
    :func:`~repro.cluster.simulator.simulate` then schedules exactly
    that stream on a simulated cluster — the predicted half of a
    predicted-vs-measured comparison, made after the run from what it
    wrote.
    """
    if not task_seconds:
        raise ValueError("no recorded tasks to replay")
    fold = FoldSpec(
        tasks=tuple(
            TaskSpec(max(s, 1e-9), result_bytes=result_bytes)
            for s in task_seconds
        ),
        label="measured-tasks",
    )
    return Workload(
        name="measured-replay", dataset_bytes=dataset_bytes, folds=(fold,)
    )
