"""Discrete-event simulation of the FCMA master-worker cluster.

Reproduces the elapsed-time behaviour of the paper's cluster runs
(Tables 3-4, Fig. 8) and of the tiled runtime's strong scaling: a
master distributes the dataset once, then serves tasks to workers on
demand; each fold is a barrier (the outer cross-validation loop is
sequential).  Scaling losses emerge from exactly the real mechanisms:
the serialized data distribution, the master's per-task handout
overhead, the master's one link (every message's bytes cross it),
last-wave load imbalance, and optional worker heterogeneity.

There is one event loop (:func:`simulate_records`): :func:`simulate`
keeps its summary, ``fcma simulate --trace`` its records
(:func:`repro.obs.export.spans_from_simulation`), and
:func:`simulate_with_failures` passes it death times.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..obs.runtime import kernel_span
from .network import NetworkModel, TEN_GBE
from .workload import Workload

__all__ = [
    "ClusterConfig",
    "SimulationResult",
    "TaskRecord",
    "simulate",
    "simulate_records",
    "simulate_with_failures",
    "speedup_curve",
]


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster-level parameters of the simulation."""

    #: Worker units (coprocessors; the paper's "#nodes" axis).
    n_workers: int
    network: NetworkModel = TEN_GBE
    #: Master CPU seconds consumed per task handout (request handling,
    #: task encode) — serializes at the master.
    master_overhead_s: float = 1e-3
    #: Multiplicative spread of per-task times across workers (0 = all
    #: identical; 0.05 = +-5% uniform jitter).
    heterogeneity: float = 0.0
    #: RNG seed for the heterogeneity draw.
    seed: int = 0
    #: Task assignment policy: "dynamic" is the paper's pull-based
    #: self-scheduling ("when a worker finishes a task, it will receive
    #: a new task"); "static" pre-assigns tasks round-robin up front —
    #: the ablation showing why the paper chose dynamic.
    schedule: str = "dynamic"

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.master_overhead_s < 0:
            raise ValueError("master_overhead_s must be >= 0")
        if not 0.0 <= self.heterogeneity < 1.0:
            raise ValueError("heterogeneity must be in [0, 1)")
        if self.schedule not in ("dynamic", "static"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated run."""

    elapsed_seconds: float
    distribution_seconds: float
    fold_seconds: np.ndarray
    #: Mean fraction of worker time spent computing (vs idle).
    utilization: float
    n_workers: int

    @property
    def compute_seconds(self) -> float:
        """Elapsed minus the one-time distribution."""
        return float(self.fold_seconds.sum())


@dataclass(frozen=True)
class TaskRecord:
    """One task's life cycle in the simulated schedule."""

    fold: int
    task_index: int
    worker: int
    #: When the master began handing the task out.
    handout_start_s: float
    #: When the worker began computing.
    compute_start_s: float
    #: When the result landed back at the master.
    finish_s: float

    @property
    def compute_seconds(self) -> float:
        """Worker compute time of this task."""
        return self.finish_s - self.compute_start_s

    @property
    def queue_seconds(self) -> float:
        """Time from handout start to compute start (master + network)."""
        return self.compute_start_s - self.handout_start_s


def simulate_records(
    workload: Workload,
    config: ClusterConfig,
    failures: Mapping[int, float] | None = None,
    detection_timeout_s: float = 0.0,
) -> tuple[SimulationResult, list[TaskRecord]]:
    """The event loop: the run's summary and each completed task's
    record, in handout order.

    A record's times are on its fold's own clock — each fold is a
    barrier and all clocks restart at 0.  ``failures`` maps worker ->
    death time in seconds after the distribution, translated to the
    fold clock here: a task in flight on a dying worker is lost, the
    master notices ``detection_timeout_s`` later and re-queues it, and
    the worker takes nothing more.
    """
    net = config.network
    n = config.n_workers
    rng = np.random.default_rng(config.seed)
    death = np.full(n, np.inf)
    for w, t in (failures or {}).items():
        death[w] = t
    records: list[TaskRecord] = []
    fold_times = np.empty(len(workload.folds), dtype=np.float64)
    busy_total = 0.0
    fold_start = 0.0
    for k, fold in enumerate(workload.folds):
        dies = death - fold_start
        worker_free = np.zeros(n, dtype=np.float64)
        master_free = 0.0
        fold_end = 0.0
        busy = 0.0
        pending = deque(enumerate(fold.tasks))
        while pending:
            idx, task = pending.popleft()
            if config.schedule == "dynamic":
                # Greedy self-scheduling: the next task goes to the
                # (living) worker that frees up first.
                alive = np.nonzero(worker_free < dies)[0]
                if alive.size == 0:
                    raise RuntimeError(
                        "all workers dead with work remaining "
                        f"(fold {k}, {len(pending) + 1} tasks left)"
                    )
                w = int(alive[np.argmin(worker_free[alive])])
            else:
                # Static round-robin pre-assignment.
                w = idx % n
            # The master serializes handouts, and its one link carries
            # every handout's bytes both ways, as it does the broadcast.
            handout_start = max(worker_free[w], master_free)
            master_free = (
                handout_start
                + config.master_overhead_s
                + (task.task_bytes + task.result_bytes) / net.bandwidth_bytes_per_s
            )
            compute_start = (
                handout_start
                + config.master_overhead_s
                + net.transfer_time(task.task_bytes)
            )
            compute = task.compute_seconds
            if config.heterogeneity > 0.0:
                compute *= 1.0 + config.heterogeneity * rng.uniform(-1.0, 1.0)
            finish = compute_start + compute + net.transfer_time(task.result_bytes)
            if finish > dies[w]:
                master_free = max(master_free, dies[w] + detection_timeout_s)
                worker_free[w] = np.inf
                pending.append((idx, task))
                continue
            worker_free[w] = finish
            fold_end = max(fold_end, finish)
            busy += compute
            records.append(
                TaskRecord(k, idx, w, handout_start, compute_start, finish)
            )
        fold_times[k] = fold_end + fold.serial_seconds
        fold_start += fold_times[k]
        busy_total += busy

    distribution = net.broadcast_time(workload.dataset_bytes, n)
    worker_time = float(fold_times.sum()) * n
    utilization = busy_total / worker_time if worker_time > 0 else 0.0
    result = SimulationResult(
        elapsed_seconds=distribution + float(fold_times.sum()),
        distribution_seconds=distribution,
        fold_seconds=fold_times,
        utilization=min(utilization, 1.0),
        n_workers=n,
    )
    return result, records


def simulate(workload: Workload, config: ClusterConfig) -> SimulationResult:
    """Run the event simulation; deterministic for a given config.

    When a tracer is ambient (:mod:`repro.obs.runtime`), the simulation
    records a ``cluster.simulate`` kernel span carrying the task count
    and the simulated elapsed/utilization outcome — the predicted half
    of every predicted-vs-measured comparison lands in the same trace
    as the measured half.
    """
    with kernel_span(
        "cluster.simulate",
        attrs={"n_workers": config.n_workers, "schedule": config.schedule},
    ) as span:
        result, _ = simulate_records(workload, config)
        if span is not None:
            span.add_metric("tasks", float(workload.n_tasks))
            span.attrs["elapsed_seconds"] = result.elapsed_seconds
            span.attrs["utilization"] = result.utilization
        return result


def speedup_curve(
    workload: Workload,
    worker_counts: list[int],
    network: NetworkModel = TEN_GBE,
    master_overhead_s: float = 1e-3,
    heterogeneity: float = 0.0,
) -> dict[int, tuple[float, float]]:
    """Elapsed time and speedup for each worker count (Fig. 8).

    Speedup is relative to the 1-worker simulation, as in the paper.
    Returns ``{n: (elapsed_seconds, speedup)}``.
    """
    if not worker_counts:
        raise ValueError("worker_counts must be non-empty")

    def elapsed(n: int) -> float:
        config = ClusterConfig(
            n_workers=n,
            network=network,
            master_overhead_s=master_overhead_s,
            heterogeneity=heterogeneity,
        )
        return simulate(workload, config).elapsed_seconds

    base = elapsed(1)
    times = {n: elapsed(n) for n in worker_counts}
    return {n: (seconds, base / seconds) for n, seconds in times.items()}


def simulate_with_failures(
    workload: Workload,
    config: ClusterConfig,
    failures: dict[int, float],
    detection_timeout_s: float = 5.0,
) -> SimulationResult:
    """Simulate a run in which some workers die mid-run.

    ``failures`` maps worker id -> death time in seconds after the data
    distribution completes.  A task in flight on a dying worker is lost;
    the master notices after ``detection_timeout_s`` (its liveness
    timeout) and re-queues the task — the same recovery the real
    protocol implements in :mod:`repro.parallel.tiled`.  Dead
    workers never come back.

    Recovery is the pull protocol's: a ``schedule="static"`` config is
    honoured while nothing fails and raises ``ValueError`` with
    ``failures``, since a pre-assigned task has nowhere else to go.
    Raises ``RuntimeError`` if every worker dies before the work is done.
    """
    for w, t in failures.items():
        if not 0 <= w < config.n_workers:
            raise ValueError(f"failure names unknown worker {w}")
        if t < 0:
            raise ValueError("failure times must be >= 0")
    if detection_timeout_s < 0:
        raise ValueError("detection_timeout_s must be >= 0")
    if failures and config.schedule != "dynamic":
        raise ValueError(
            "worker failures are recovered by re-queueing: schedule must "
            f"be 'dynamic', not {config.schedule!r}"
        )
    return simulate_records(workload, config, failures, detection_timeout_s)[0]
