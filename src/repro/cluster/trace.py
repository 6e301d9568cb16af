"""Execution traces of simulated cluster runs.

The summary numbers of :func:`repro.cluster.simulator.simulate` say
*how long* a run took; traces say *why*: per-task start/finish records
per worker, from which idle gaps, the last-wave tail, and master-side
serialization become visible.  A text Gantt rendering makes the
schedule inspectable in a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkModel
from .simulator import ClusterConfig
from .workload import Workload

__all__ = ["TaskRecord", "ClusterTrace", "simulate_with_trace", "render_gantt"]


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


@dataclass(frozen=True)
class ClusterTrace:
    """All task records of one simulated run."""

    records: tuple[TaskRecord, ...]
    n_workers: int
    elapsed_seconds: float
    distribution_seconds: float

    def worker_busy_seconds(self) -> np.ndarray:
        """Total compute seconds per worker."""
        busy = np.zeros(self.n_workers)
        for r in self.records:
            busy[r.worker] += r.compute_seconds
        return busy

    def worker_idle_fraction(self) -> np.ndarray:
        """Per-worker idle share of the post-distribution makespan."""
        span = self.elapsed_seconds - self.distribution_seconds
        if span <= 0:
            return np.zeros(self.n_workers)
        return 1.0 - self.worker_busy_seconds() / span

    def tail_seconds(self) -> float:
        """Last-wave tail: makespan minus when the busiest-but-one wave
        ended (time the run spends waiting on stragglers)."""
        if not self.records:
            return 0.0
        finishes = sorted(r.finish_s for r in self.records)
        if len(finishes) < 2:
            return 0.0
        # time between the last finish and the n_workers-th-to-last one
        k = max(len(finishes) - self.n_workers, 0)
        return finishes[-1] - finishes[k]

    def tasks_per_worker(self) -> np.ndarray:
        """Task counts per worker (dynamic scheduling balance check)."""
        counts = np.zeros(self.n_workers, dtype=np.int64)
        for r in self.records:
            counts[r.worker] += 1
        return counts


def simulate_with_trace(
    workload: Workload, config: ClusterConfig
) -> ClusterTrace:
    """The simulator's schedule, with full per-task records.

    Mirrors :func:`repro.cluster.simulator.simulate` exactly (same
    greedy self-scheduling / static assignment, same RNG) and returns
    the trace; ``elapsed_seconds`` matches ``simulate``'s to float
    precision.
    """
    net: NetworkModel = config.network
    n = config.n_workers
    rng = np.random.default_rng(config.seed)

    distribution = net.broadcast_time(workload.dataset_bytes, n)
    records: list[TaskRecord] = []
    clock_base = distribution
    total = distribution

    for k, fold in enumerate(workload.folds):
        worker_free = np.zeros(n, dtype=np.float64)
        master_free = 0.0
        for idx, task in enumerate(fold.tasks):
            if config.schedule == "dynamic":
                w = int(np.argmin(worker_free))
            else:
                w = idx % n
            handout_start = max(worker_free[w], master_free)
            master_free = handout_start + config.master_overhead_s
            compute_start = (
                handout_start
                + config.master_overhead_s
                + net.transfer_time(task.task_bytes)
            )
            compute = task.compute_seconds
            if config.heterogeneity > 0.0:
                compute *= 1.0 + config.heterogeneity * rng.uniform(-1.0, 1.0)
            finish = compute_start + compute + net.transfer_time(task.result_bytes)
            worker_free[w] = finish
            records.append(
                TaskRecord(
                    fold=k,
                    task_index=idx,
                    worker=w,
                    handout_start_s=clock_base + handout_start,
                    compute_start_s=clock_base + compute_start,
                    finish_s=clock_base + finish,
                )
            )
        fold_elapsed = float(worker_free.max()) + fold.serial_seconds
        clock_base += fold_elapsed
        total += fold_elapsed

    return ClusterTrace(
        records=tuple(records),
        n_workers=n,
        elapsed_seconds=total,
        distribution_seconds=distribution,
    )


def render_gantt(trace: ClusterTrace, width: int = 72) -> str:
    """Text Gantt chart: one row per worker, ``#`` = computing."""
    if width < 10:
        raise ValueError("width must be >= 10")
    span = trace.elapsed_seconds
    if span <= 0:
        return "(empty trace)"
    lines = [f"gantt over {span:.2f} s ('#'=compute, '.'=idle)"]
    scale = width / span
    for w in range(trace.n_workers):
        row = ["."] * width
        for r in trace.records:
            if r.worker != w:
                continue
            a = min(int(r.compute_start_s * scale), width - 1)
            b = min(int(r.finish_s * scale), width)
            for p in range(a, max(b, a + 1)):
                row[p] = "#"
        lines.append(f"w{w:03d} |{''.join(row)}|")
    return "\n".join(lines)
