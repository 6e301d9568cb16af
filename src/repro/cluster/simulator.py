"""Discrete-event simulation of the FCMA master-worker cluster.

Reproduces the elapsed-time behaviour of the paper's cluster runs
(Tables 3-4, Fig. 8): a master distributes the dataset once, then serves
tasks to coprocessor workers on demand; each fold is a barrier (the
outer cross-validation loop is sequential).  Scaling losses emerge from
exactly the real mechanisms: the serialized data distribution, the
master's per-task handout overhead, last-wave load imbalance, and
optional worker heterogeneity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.runtime import kernel_span
from .network import NetworkModel, TEN_GBE
from .workload import Workload

__all__ = ["ClusterConfig", "SimulationResult", "simulate", "simulate_with_failures", "speedup_curve"]


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
        result = _simulate_core(workload, config)
        if span is not None:
            span.add_metric("tasks", float(workload.n_tasks))
            span.attrs["elapsed_seconds"] = result.elapsed_seconds
            span.attrs["utilization"] = result.utilization
        return result


def _simulate_core(workload: Workload, config: ClusterConfig) -> SimulationResult:
    net = config.network
    n = config.n_workers
    rng = np.random.default_rng(config.seed)

    distribution = net.broadcast_time(workload.dataset_bytes, n)

    fold_times = np.empty(len(workload.folds), dtype=np.float64)
    busy_total = 0.0
    for k, fold in enumerate(workload.folds):
        # All clocks restart at the fold barrier.
        worker_free = np.zeros(n, dtype=np.float64)
        master_free = 0.0
        busy = 0.0
        for idx, task in enumerate(fold.tasks):
            if config.schedule == "dynamic":
                # Greedy self-scheduling: the next task goes to the
                # worker that frees up first; the master serializes
                # handouts.
                w = int(np.argmin(worker_free))
            else:
                # Static round-robin pre-assignment.
                w = idx % n
            handout_done = (
                max(worker_free[w], master_free)
                + config.master_overhead_s
                + net.transfer_time(task.task_bytes)
            )
            master_free = max(worker_free[w], master_free) + config.master_overhead_s
            compute = task.compute_seconds
            if config.heterogeneity > 0.0:
                compute *= 1.0 + config.heterogeneity * rng.uniform(-1.0, 1.0)
            finish = handout_done + compute + net.transfer_time(task.result_bytes)
            worker_free[w] = finish
            busy += compute
        fold_elapsed = float(worker_free.max()) + fold.serial_seconds
        fold_times[k] = fold_elapsed
        busy_total += busy

    total = distribution + float(fold_times.sum())
    worker_time = float(fold_times.sum()) * n
    utilization = busy_total / worker_time if worker_time > 0 else 0.0
    return SimulationResult(
        elapsed_seconds=total,
        distribution_seconds=distribution,
        fold_seconds=fold_times,
        utilization=min(utilization, 1.0),
        n_workers=n,
    )


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
    base = simulate(
        workload,
        ClusterConfig(
            n_workers=1,
            network=network,
            master_overhead_s=master_overhead_s,
            heterogeneity=heterogeneity,
        ),
    ).elapsed_seconds
    out: dict[int, tuple[float, float]] = {}
    for n in worker_counts:
        elapsed = simulate(
            workload,
            ClusterConfig(
                n_workers=n,
                network=network,
                master_overhead_s=master_overhead_s,
                heterogeneity=heterogeneity,
            ),
        ).elapsed_seconds
        out[n] = (elapsed, base / elapsed)
    return out


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

    Raises ``RuntimeError`` if every worker dies before the work is done.
    """
    for w, t in failures.items():
        if not 0 <= w < config.n_workers:
            raise ValueError(f"failure names unknown worker {w}")
        if t < 0:
            raise ValueError("failure times must be >= 0")
    if detection_timeout_s < 0:
        raise ValueError("detection_timeout_s must be >= 0")

    net = config.network
    n = config.n_workers
    rng = np.random.default_rng(config.seed)
    distribution = net.broadcast_time(workload.dataset_bytes, n)
    death = np.full(n, np.inf)
    for w, t in failures.items():
        death[w] = t

    fold_times = np.empty(len(workload.folds), dtype=np.float64)
    busy_total = 0.0
    clock_base = 0.0  # fold clocks accumulate against the death times
    for k, fold in enumerate(workload.folds):
        worker_free = np.full(n, clock_base, dtype=np.float64)
        master_free = clock_base
        busy = 0.0
        pending = list(fold.tasks)
        while pending:
            task = pending.pop(0)
            alive = np.nonzero(worker_free < death)[0]
            if alive.size == 0:
                raise RuntimeError(
                    "all workers dead with work remaining "
                    f"(fold {k}, {len(pending) + 1} tasks left)"
                )
            w = int(alive[np.argmin(worker_free[alive])])
            handout_done = (
                max(worker_free[w], master_free)
                + config.master_overhead_s
                + net.transfer_time(task.task_bytes)
            )
            master_free = max(worker_free[w], master_free) + config.master_overhead_s
            compute = task.compute_seconds
            if config.heterogeneity > 0.0:
                compute *= 1.0 + config.heterogeneity * rng.uniform(-1.0, 1.0)
            finish = handout_done + compute + net.transfer_time(task.result_bytes)
            if finish > death[w]:
                # Task dies with the worker; master re-queues after its
                # liveness timeout.  The worker is gone for good.
                master_free = max(master_free, death[w] + detection_timeout_s)
                worker_free[w] = np.inf
                pending.append(task)
                continue
            worker_free[w] = finish
            busy += compute
        finite = worker_free[np.isfinite(worker_free)]
        fold_end = float(finite.max()) if finite.size else clock_base
        fold_times[k] = fold_end - clock_base + fold.serial_seconds
        clock_base = fold_end + fold.serial_seconds
        busy_total += busy

    total = distribution + float(fold_times.sum())
    worker_time = float(fold_times.sum()) * n
    utilization = busy_total / worker_time if worker_time > 0 else 0.0
    return SimulationResult(
        elapsed_seconds=total,
        distribution_seconds=distribution,
        fold_seconds=fold_times,
        utilization=min(utilization, 1.0),
        n_workers=n,
    )
