"""Execution traces of simulated cluster runs.

The summary numbers of :func:`repro.cluster.simulator.simulate` say
*how long* a run took; traces say *why*: per-task start/finish records
per worker, from which idle gaps, the last-wave tail, and master-side
serialization become visible.  A text Gantt rendering makes the
schedule inspectable in a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .simulator import ClusterConfig, TaskRecord, simulate_records
from .workload import Workload

__all__ = ["TaskRecord", "ClusterTrace", "simulate_with_trace", "render_gantt"]


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

    The records :func:`repro.cluster.simulator.simulate` aggregates,
    kept — moved from their fold's clock to the run's (the distribution,
    then each fold after the last) — so ``elapsed_seconds`` is
    ``simulate``'s value by construction.
    """
    result, records = simulate_records(workload, config)
    fold_start = np.cumsum([result.distribution_seconds, *result.fold_seconds])
    return ClusterTrace(
        records=tuple(
            replace(
                r,
                handout_start_s=float(fold_start[r.fold] + r.handout_start_s),
                compute_start_s=float(fold_start[r.fold] + r.compute_start_s),
                finish_s=float(fold_start[r.fold] + r.finish_s),
            )
            for r in records
        ),
        n_workers=config.n_workers,
        elapsed_seconds=result.elapsed_seconds,
        distribution_seconds=result.distribution_seconds,
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
