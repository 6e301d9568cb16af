"""Shared fixtures: small synthetic datasets reused across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.data import SyntheticConfig, generate_dataset


@pytest.fixture(scope="session")
def tiny_config() -> SyntheticConfig:
    """Small config: full pipeline runs in well under a second."""
    return SyntheticConfig(
        n_voxels=60,
        n_subjects=4,
        epochs_per_subject=8,
        epoch_length=12,
        n_informative=12,
        n_groups=3,
        seed=123,
        name="tiny",
    )


@pytest.fixture(scope="session")
def tiny_dataset(tiny_config):
    return generate_dataset(tiny_config)


@pytest.fixture(scope="session")
def small_config() -> SyntheticConfig:
    """Medium config: enough voxels for ROI-recovery statistics."""
    return SyntheticConfig(
        n_voxels=150,
        n_subjects=4,
        epochs_per_subject=8,
        epoch_length=12,
        n_informative=20,
        n_groups=4,
        seed=7,
        name="small",
    )


@pytest.fixture(scope="session")
def small_dataset(small_config):
    return generate_dataset(small_config)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def fast_fcma_config() -> FCMAConfig:
    """Pipeline config tuned for test speed (small tiles, few voxels)."""
    return FCMAConfig(task_voxels=40, target_block=32)


@pytest.fixture()
def small_gram_chunks(monkeypatch) -> int:
    """Shrink the Gram rule's chunk to 16 columns — in this process only
    — so the 60-voxel tiny dataset is four chunks and a 32-column tile
    two.  Spawned worker *processes* do not see a monkeypatch: tests
    that cross a process boundary run the real constant."""
    import repro.core.kernels as kernels

    monkeypatch.setattr(kernels, "GRAM_CHUNK_COLS", 16)
    return 16


@pytest.fixture()
def join_tcp_workers():
    """``join(n) -> port``: start ``n`` worker ranks as threads of this
    process that join the TCP master about to listen on ``port``
    (``MasterWorkerExecutor(transport="tcp", port=port, spawn=False)``)
    and run the fleet's rank program — so monkeypatches reach them,
    which spawned worker processes never see."""
    import socket
    import threading
    import time

    from repro.parallel.comm import Comm
    from repro.parallel.tcp_worker import run_worker
    from repro.parallel.transport import TcpTransport

    threads: list[threading.Thread] = []

    def rank(port: int) -> None:
        deadline = time.monotonic() + 30.0
        while True:
            try:
                transport = TcpTransport.connect("127.0.0.1", port, timeout=30.0)
                break
            except OSError:  # the master is not listening yet
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        try:
            run_worker(Comm(transport, transport.rank))
        except Exception:  # noqa: BLE001 - a dying rank is the master's to report
            pass
        finally:
            transport.close()

    def join(n_workers: int) -> int:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        for _ in range(n_workers):
            threads.append(threading.Thread(target=rank, args=(port,), daemon=True))
            threads[-1].start()
        return port

    from repro.core import engine

    alone = engine._host_workers
    yield join
    for thread in threads:
        thread.join(30.0)
    # In-process ranks set this process's host share from the broadcast,
    # as a TCP worker process does for itself; put the caller's back.
    engine.set_host_workers(alone)
