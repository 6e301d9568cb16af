"""Executors: one task stream, two ways to run it.

Every executor consumes the same inputs — a dataset, a
:class:`~repro.exec.context.RunContext`, and the task stream produced by
:func:`repro.exec.partition.partition_tasks` — and returns the same
sorted :class:`~repro.core.results.VoxelScores`, bitwise-identical
across backends for a fixed seed (pinned by the cross-executor
equivalence test):

* :class:`SerialExecutor` — in-process reference loop;
* :class:`MasterWorkerExecutor` — the paper's pull-based master/worker
  runtime (:mod:`repro.parallel.tiled`: one loop, row tasks or 2-D
  tiles) over one fleet: thread or TCP ranks, all running
  :func:`repro.parallel.tcp_worker.run_worker`.

Worker telemetry reaches the caller's context one way
(:meth:`RunContext.merge_export`: thread and TCP ranks' reports alike).
Executors measure and model nothing.  A finished run's task stream
(``ctx.task_seconds``) is what :func:`repro.cluster.measured_workload`
turns into a simulator replay, after the fact and outside the run.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Iterator, Protocol, runtime_checkable

import numpy as np
from numpy.typing import NDArray

from ..core.engine import set_host_workers
from ..core.results import VoxelScores
from ..data.dataset import FMRIDataset
from ..parallel.comm import Comm, CommGroup, RankThreads
from ..parallel.shared import SharedWindows, memory_file
from ..parallel.tiled import WorkPlan, master_loop
from ..parallel.transport import TcpListener, spawn_local_workers
from .context import RunContext
from .partition import partition_tasks, partition_tiles, tile_cols_for
from .stage_graph import execute_task, preprocess

__all__ = [
    "Executor",
    "MasterWorkerExecutor",
    "SerialExecutor",
    "EXECUTOR_NAMES",
    "make_executor",
]


@runtime_checkable
class Executor(Protocol):
    """Anything that can run the FCMA task stream to completion."""

    #: Stable name (CLI ``--executor`` value, telemetry key).
    name: str

    def run(
        self,
        dataset: FMRIDataset,
        ctx: RunContext,
        voxels: NDArray[Any] | None = None,
    ) -> VoxelScores:
        """Run voxel selection; telemetry accumulates into ``ctx``."""
        ...


def _task_stream(
    dataset: FMRIDataset, ctx: RunContext, voxels: NDArray[Any] | None
) -> list[NDArray[np.int64]]:
    return partition_tasks(dataset.n_voxels, ctx.config.task_voxels, voxels)


def _record_plan(
    ctx: RunContext, n_tasks: int, n_workers: int, n_tiles: int | None = None
) -> None:
    """Record the run's plan on its trace — one zero-width ``event`` the
    live plane folds into its totals, so the first snapshot already
    knows 0/N."""
    metrics = {"tasks": float(n_tasks)}
    if n_tiles is not None:
        metrics["tiles"] = float(n_tiles)
    ctx.tracer.record(
        "plan", kind="event", metrics=metrics, attrs={"n_workers": n_workers}
    )


def _finish(
    ctx: RunContext, executor: "Executor", n_tasks: int, elapsed: float
) -> None:
    ctx.metadata["executor"] = executor.name
    ctx.metadata["n_tasks"] = n_tasks
    ctx.metadata["measured_elapsed_s"] = elapsed
    # The finished run's totals, where reports read them after the run.
    ctx.metadata["counters"] = ctx.counters()


class SerialExecutor:
    """The single-process reference: tasks in order, one at a time."""

    name = "serial"

    def run(
        self,
        dataset: FMRIDataset,
        ctx: RunContext,
        voxels: NDArray[Any] | None = None,
    ) -> VoxelScores:
        with ctx.run_span(self.name, dataset):
            t0 = time.perf_counter()
            tasks = _task_stream(dataset, ctx, voxels)
            _record_plan(ctx, len(tasks), 1)
            parts = [execute_task(dataset, task, ctx) for task in tasks]
            scores = VoxelScores.concatenate(parts).sorted_by_accuracy()
            _finish(ctx, self, len(tasks), time.perf_counter() - t0)
        return scores


# -- master-worker --------------------------------------------------------


#: Transport / partition names ``MasterWorkerExecutor`` accepts.
TRANSPORT_NAMES = ("thread", "tcp")
PARTITION_NAMES = ("rows", "tiles")


class MasterWorkerExecutor:
    """The paper's pull-based protocol over a pluggable transport.

    Wraps the one master/worker runtime (:mod:`repro.parallel.tiled`):
    rank 0 serves a :class:`~repro.parallel.tiled.WorkPlan` on demand
    and aggregates, ranks 1..n run the work items.

    * ``partition="rows"`` (default) plans the paper's 1-D row tasks —
      every variant; ``partition="tiles"`` plans 2-D tiles of the dense
      engine with communication/compute overlap.  Same loop either way.
    * ``transport="thread"`` (default) runs the ranks as in-process
      threads; ``transport="tcp"`` listens on ``host:port`` and runs
      the same protocol against real worker *processes* (spawned
      locally when ``spawn=True``, or joined externally via ``fcma
      worker --connect``), so the run spans multiple cores or hosts.
    """

    name = "master-worker"

    def __init__(
        self,
        n_workers: int = 2,
        max_retries: int = 2,
        transport: str = "thread",
        partition: str = "rows",
        host: str = "127.0.0.1",
        port: int = 0,
        spawn: bool = True,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if transport not in TRANSPORT_NAMES:
            raise ValueError(
                f"unknown transport {transport!r}; choose from {TRANSPORT_NAMES}"
            )
        if partition not in PARTITION_NAMES:
            raise ValueError(
                f"unknown partition {partition!r}; choose from {PARTITION_NAMES}"
            )
        self.n_workers = n_workers
        self.max_retries = max_retries
        self.transport = transport
        self.partition = partition
        self.host = host
        self.port = port
        self.spawn = spawn

    def _plan(
        self,
        dataset: FMRIDataset,
        ctx: RunContext,
        voxels: NDArray[Any] | None,
    ) -> WorkPlan:
        """The run's work plan, recorded on its trace."""
        config = ctx.config
        tasks = _task_stream(dataset, ctx, voxels)
        if self.partition == "rows":
            _record_plan(ctx, len(tasks), self.n_workers)
            return WorkPlan(tasks=tasks)
        # The master plans from the voxel count alone: it never holds
        # preprocessed data, correlations or panel buffers.
        n_voxels = dataset.n_voxels
        cols = tile_cols_for(
            n_voxels, config.target_block, self.n_workers, len(tasks)
        )
        tiles = partition_tiles(n_voxels, config.task_voxels, cols, voxels)
        # The width walked (the partition widens degenerate splits).
        ctx.metadata["tile_cols"] = max(t.n_cols for t in tiles)
        _record_plan(ctx, len(tasks), self.n_workers, len(tiles))
        return WorkPlan(tiles=tiles)

    def run(
        self,
        dataset: FMRIDataset,
        ctx: RunContext,
        voxels: NDArray[Any] | None = None,
    ) -> VoxelScores:
        if self.partition == "tiles" and ctx.config.resolved_emitter() != "dense":
            # The tile workers run the dense engine's tile body and the
            # batched score; any other variant would be silently ignored.
            raise ValueError(
                f"partition='tiles' distributes the dense engine only; "
                f"variant {ctx.config.variant!r} does not run through it "
                f"(use partition='rows')"
            )
        timeout = ctx.config.comm_timeout  # None: FCMA_COMM_TIMEOUT or 120 s
        with ctx.run_span(self.name, dataset):
            t0 = time.perf_counter()
            plan = self._plan(dataset, ctx, voxels)
            # One fleet: every worker rank runs ``run_worker`` and the
            # master's sequence is below, once.  How ranks come to exist
            # and go away, and what they are given to work from, is all
            # that differs between the transports.
            ranks = (
                self._tcp_ranks(ctx, dataset, timeout)
                if self.transport == "tcp"
                else self._thread_ranks(ctx, dataset, timeout)
            )
            with ranks as (comm, host_workers, source):
                # The paper's master "first distributes brain data to
                # the worker nodes and then sends tasks".
                comm.bcast(
                    {
                        "config": ctx.config,
                        "source": source,
                        "host_workers": host_workers,
                    }
                )
                reports: dict[int, Any] = {}
                scores = master_loop(comm, plan, self.max_retries, reports)
                for _rank, report in sorted(reports.items()):
                    ctx.merge_export(report["export"])
                # A forked TCP rank is not this process's child, so its
                # memory is only known from its own report.
                ctx.metadata["worker_peak_rss_mb"] = {
                    rank: report["peak_rss_mb"]
                    for rank, report in sorted(reports.items())
                }
                # Rank 0's end; every worker's came home in its report.
                stats = comm.stats
                ctx.increment("comm.bytes_sent", stats.bytes_sent)
                ctx.increment("comm.bytes_recv", stats.bytes_recv)
            _finish(ctx, self, plan.n_items, time.perf_counter() - t0)
            ctx.metadata["n_workers"] = self.n_workers
            ctx.metadata["transport"] = self.transport
            ctx.metadata["partition"] = self.partition
        return scores

    @contextmanager
    def _thread_ranks(
        self, ctx: RunContext, dataset: FMRIDataset, timeout: float | None
    ) -> Iterator[tuple[Comm, dict[int, int], Any]]:
        """Worker ranks as threads of this process over a
        :class:`~repro.parallel.comm.CommGroup`: rank 0 makes the
        windows, the broadcast shares them by reference, and the ranks
        split this process's cores as their engine thread budgets (the
        caller's budget is restored)."""
        # Imported here so ``python -m repro.parallel.tcp_worker`` does
        # not find itself already imported by its own package.
        from ..parallel.tcp_worker import run_worker

        windows = preprocess(ctx, dataset)
        group = CommGroup(self.n_workers + 1, timeout=timeout)
        workers = range(1, group.size)
        alone = set_host_workers(self.n_workers)
        ranks = RankThreads(group, workers, run_worker)
        try:
            yield group.comm(0), dict.fromkeys(workers, self.n_workers), windows
        finally:
            ranks.join()
            set_host_workers(alone)

    @contextmanager
    def _tcp_ranks(
        self, ctx: RunContext, dataset: FMRIDataset, timeout: float | None
    ) -> Iterator[tuple[Comm, dict[int, int], Any]]:
        """Worker ranks as processes joined over ``host:port``: accepted,
        then closed and reaped.

        Ranks spawned here share this host: while they fork and
        connect, rank 0 makes the windows in a memory file
        (:mod:`repro.parallel.shared`) and they are sent its handle, open
        until every rank has reported.  Ranks that joined (``fcma worker
        --connect``) are sent the dataset and make their own."""
        listener = TcpListener(self.host, self.port)
        ctx.metadata["tcp_address"] = list(listener.address)
        procs: list[Any] = []
        transport = None
        try:
            with ExitStack() as files:
                source: Any = dataset
                if self.spawn:
                    procs = spawn_local_workers(
                        listener.address, self.n_workers, timeout=timeout
                    )
                    shape = (dataset.n_epochs, dataset.n_voxels, dataset.epoch_length)
                    fd, out = files.enter_context(memory_file(shape))
                    epochs, _ = preprocess(ctx, dataset, out)
                    source = SharedWindows(epochs, os.getpid(), fd, shape)
                transport = listener.accept(self.n_workers, timeout=timeout)
                hosts = transport.peer_hosts()
                # Per rank, the workers sharing its host (and so its
                # cores): the divisor of its thread budget.
                yield Comm(transport, 0), {
                    rank: list(hosts.values()).count(host)
                    for rank, host in hosts.items()
                }, source
        finally:
            if transport is not None:
                transport.close()
            else:
                listener.close()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except Exception:
                    proc.kill()
                    proc.wait()  # reap: kill() alone leaves a zombie


#: CLI / factory names of the built-in executors.
EXECUTOR_NAMES = ("serial", "master-worker")


def make_executor(
    name: str,
    n_workers: int | None = None,
    **kwargs: Any,
) -> Executor:
    """Build a built-in executor by name (the CLI ``--executor`` values).

    ``n_workers`` is the master-worker rank count; ``None`` takes its
    default (2), and the serial executor has none to set.  Below 1 is
    an error whichever executor is named."""
    if n_workers is not None and n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if name == "serial":
        return SerialExecutor()
    if name == "master-worker":
        if n_workers is not None:
            kwargs["n_workers"] = n_workers
        return MasterWorkerExecutor(**kwargs)
    raise KeyError(
        f"unknown executor {name!r}; choose from {', '.join(EXECUTOR_NAMES)}"
    )
