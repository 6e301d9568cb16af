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

:func:`tiled_workload` is the third: the tiled master-worker runtime's
work items over one fold — the strong-scaling question of the repo's
own runtime, priced by the same simulator.

:func:`measured_workload` is the fourth source: the per-task seconds a
real run recorded (``RunContext.task_seconds``), replayed as one fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

from ..core.kernels import gram_chunks
from ..data.presets import DatasetSpec
from ..exec.partition import n_tasks as _partition_n_tasks
from ..exec.partition import partition_tiles
from ..hw.spec import HardwareSpec
from ..perf.svm_model import model_svm_cv
from ..perf.task_model import model_walk

__all__ = [
    "TaskSpec",
    "FoldSpec",
    "Workload",
    "measured_workload",
    "offline_workload",
    "online_workload",
    "score_task",
    "tile_task",
    "tiled_workload",
]

#: float32 payload elements.
_F32 = 4
#: Bytes per scored voxel in a result (int64 id + float64 accuracy).
_SCORE_BYTES = 16


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


def tile_task(
    spec: DatasetSpec, hw: HardwareSpec, rows: int, cols: int, n_chunks: int
) -> TaskSpec:
    """One tile item of the tiled runtime: a walk of ``rows`` voxels over
    ``cols`` columns.  Its descriptor (row ids + column range) goes down;
    one ``(rows, E, E)`` float32 partial Gram per Gram-rule chunk comes
    back — the worker keeps the block it computed."""
    if n_chunks < 1:
        raise ValueError("a tile holds at least one Gram chunk")
    return TaskSpec(
        model_walk(spec, rows, cols, hw)[1],
        task_bytes=rows * 8 + 32,
        result_bytes=n_chunks * rows * spec.n_epochs**2 * _F32,
    )


def score_task(spec: DatasetSpec, hw: HardwareSpec, rows: int) -> TaskSpec:
    """One score item: a panel's summed ``(rows, E, E)`` kernels and row
    ids go down, each voxel's id and accuracy come back."""
    if rows < 1:
        raise ValueError("rows must be >= 1")
    return TaskSpec(
        model_svm_cv(spec, rows, hw, "phisvm").seconds,
        task_bytes=rows * spec.n_epochs**2 * _F32 + rows * 8,
        result_bytes=rows * _SCORE_BYTES,
    )


def tiled_workload(
    spec: DatasetSpec, hw: HardwareSpec, task_voxels: int, tile_cols: int
) -> Workload:
    """The tiled master-worker runtime's whole-brain run as one fold.

    The plan is :func:`~repro.exec.partition.partition_tiles`'; each row
    panel's tile items come in dispatch order, then its score item (the
    runtime serves a ready score before the next panel's tiles).  Tiles
    must be whole Gram chunks, as the runtime's are
    (:func:`~repro.exec.partition.tile_cols_for`).  Every worker gets
    the dataset once.
    """
    n = spec.n_voxels
    tasks: list[TaskSpec] = []
    for _, panel in groupby(
        partition_tiles(n, task_voxels, tile_cols), key=lambda t: t.panel
    ):
        tiles = list(panel)
        rows = tiles[0].n_rows
        for t in tiles:
            chunks = gram_chunks(n, t.col_start, t.col_stop)
            tasks.append(tile_task(spec, hw, rows, t.n_cols, len(chunks)))
        tasks.append(score_task(spec, hw, rows))
    return Workload(
        name=f"tiled/{spec.name}",
        dataset_bytes=spec.bold_bytes(),
        folds=(FoldSpec(tasks=tuple(tasks), label="tiled-selection"),),
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
