"""The master's windows in a memory file, mapped by the ranks it spawned.

A spawned TCP rank is sent a handle, not the dataset: it maps rank 0's
equation-2 windows read-only, leaves nothing behind on the host, dies
by name when it cannot map them, and ends when the master does.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import FCMAConfig
from repro.core.engine import set_host_workers
from repro.core.pipeline import preprocess_dataset
from repro.exec import RunContext
from repro.exec.executors import MasterWorkerExecutor
from repro.exec.partition import partition_tasks
from repro.parallel.comm import CommGroup, RankThreads
from repro.parallel.shared import SharedWindows, memory_file
from repro.parallel.tcp_worker import run_worker
from repro.parallel.tiled import WorkPlan, master_loop

SRC = str(Path(repro.__file__).resolve().parents[1])


def _memory_files() -> list[str]:
    """This process's open descriptors on memory files."""
    targets = []
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):
            targets.append(os.readlink(f"/proc/self/fd/{fd}"))
    return [t for t in targets if t.startswith("/memfd:")]


def _dev_shm() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class TestHandle:
    def test_rank_maps_the_windows_read_only(self, tiny_dataset):
        grouped, z = preprocess_dataset(tiny_dataset)
        with memory_file(z.shape) as (fd, out):
            out[...] = z
            handle = SharedWindows(grouped.epochs, os.getpid(), fd, z.shape)
            epochs, mapped = handle.open()
        assert epochs is grouped.epochs
        np.testing.assert_array_equal(mapped, z)
        assert mapped.flags.writeable is False
        with pytest.raises(ValueError):
            mapped.flags.writeable = True
        # The descriptor is closed; the mappings hold the memory.
        assert _memory_files() == []
        np.testing.assert_array_equal(mapped, out)

    def test_preprocess_into_a_memory_file_caches_it_read_only(self, tiny_dataset):
        grouped, z = preprocess_dataset(tiny_dataset)
        with memory_file(z.shape) as (_, out):
            again, shared = preprocess_dataset(tiny_dataset, out)
        assert again is grouped and shared is out
        assert shared.flags.writeable is False
        np.testing.assert_array_equal(shared, z)
        assert preprocess_dataset(tiny_dataset)[1] is shared

    def test_rank_that_cannot_map_the_windows_fails_the_run_by_name(
        self, tiny_dataset
    ):
        """No silent fallback to the dataset: the rank's report names
        the error and the master gives up at once."""
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()  # reaped: /proc/<pid> no longer exists
        grouped, z = preprocess_dataset(tiny_dataset)
        handle = SharedWindows(grouped.epochs, dead.pid, 3, z.shape)
        config = FCMAConfig(task_voxels=40, comm_timeout=30)
        group = CommGroup(3, timeout=30)
        alone = set_host_workers(1)
        ranks = RankThreads(group, (1, 2), run_worker)
        try:
            comm = group.comm(0)
            comm.bcast({"config": config, "source": handle, "host_workers": {1: 2, 2: 2}})
            plan = WorkPlan(tasks=partition_tasks(tiny_dataset.n_voxels, 40))
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="died of FileNotFoundError"):
                master_loop(comm, plan)
            assert time.monotonic() - started < 5.0
        finally:
            ranks.join()
            set_host_workers(alone)


class TestSpawnedRuns:
    def test_repeated_runs_leave_no_memory_file_and_nothing_in_dev_shm(
        self, tiny_dataset
    ):
        shm = _dev_shm()
        config = FCMAConfig(task_voxels=40)
        for partition in ("tiles", "rows", "tiles"):
            MasterWorkerExecutor(
                n_workers=2, transport="tcp", partition=partition
            ).run(tiny_dataset, RunContext(config))
            assert _memory_files() == []
        assert _dev_shm() <= shm

    def test_joined_ranks_are_still_sent_the_dataset(
        self, tiny_dataset, join_tcp_workers
    ):
        config = FCMAConfig(task_voxels=40, comm_timeout=30)
        spawned, joined = RunContext(config), RunContext(config)
        MasterWorkerExecutor(n_workers=2, transport="tcp").run(tiny_dataset, spawned)
        MasterWorkerExecutor(
            n_workers=2, transport="tcp", port=join_tcp_workers(2), spawn=False
        ).run(tiny_dataset, joined)
        for key in ("comm.bytes_sent", "comm.bytes_recv"):
            extra = joined.counters()[key] - spawned.counters()[key]
            assert extra == pytest.approx(2 * tiny_dataset.nbytes(), rel=0.05), key


#: A master that spawns two TCP ranks, prints its fork server's pid once
#: they have connected and been sent the windows, and stalls there.
STALLED_MASTER = """
import time
import repro.exec.executors as executors
from repro.core import FCMAConfig
from repro.data import SyntheticConfig, generate_dataset
from repro.exec import RunContext
from repro.parallel import transport

def stalled(comm, plan, *args, **kwargs):
    print(transport._fork_server.proc.pid, flush=True)
    time.sleep(120)

executors.master_loop = stalled
dataset = generate_dataset(SyntheticConfig(
    n_voxels=60, n_subjects=2, epochs_per_subject=4, epoch_length=6,
    n_informative=8, n_groups=1, seed=1))
executors.MasterWorkerExecutor(n_workers=2, transport="tcp", partition="tiles").run(
    dataset, RunContext(FCMAConfig(task_voxels=20)))
"""


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            with contextlib.suppress(OSError):
                stat = Path(f"/proc/{entry}/stat").read_text()
                if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                    kids.append(int(entry))
    return kids


def _running(pid: int) -> bool:
    """Alive and not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_killing_the_master_ends_its_ranks(tmp_path):
    with (tmp_path / "stderr").open("w") as err:
        master = subprocess.Popen(
            [sys.executable, "-c", STALLED_MASTER],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE, stderr=err, text=True,
            start_new_session=True,
        )
    ranks: list[int] = []
    try:
        server = int(master.stdout.readline())
        ranks = _children(server)
        assert len(ranks) == 2
        master.send_signal(signal.SIGKILL)
        master.wait(10)
        deadline = time.monotonic() + 10
        while any(map(_running, ranks)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, ranks))
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(master.pid, signal.SIGKILL)
        for pid in ranks:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        master.stdout.close()
        master.wait()
