"""Fork safety of the engine's thread pool, and the worker import diet.

A process-global ``ThreadPoolExecutor`` deadlocks the process-pool
executor: the forked child inherits the pool object but none of its
threads, and its first engine call waits forever.  The engine scopes its
pool to one call instead; this pins it with an in-process multi-thread
engine run *followed by* a fork.  Everything runs in a child interpreter
so a regression fails on a timeout instead of hanging the suite.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Arms a per-run watchdog (dumps every stack, exits non-zero), then
#: runs serial -> pool -> thread-rank master-worker -> serial again and
#: prints one result digest per run.
SCENARIO = """
import faulthandler, hashlib, os
os.sched_getaffinity = lambda pid: set(range(4))  # a 4-CPU mask anywhere
from repro.core import FCMAConfig, kernels
from repro.data import SyntheticConfig, generate_dataset
from repro.exec import RunContext, make_executor

kernels.GRAM_CHUNK_COLS = 16  # four chunks (the walk's tiles) at 60 voxels
dataset = generate_dataset(SyntheticConfig(
    n_voxels=60, n_subjects=4, epochs_per_subject=8, epoch_length=12,
    n_informative=12, n_groups=3, seed=123))
config = FCMAConfig(variant="optimized-batched", task_voxels=16)
for name in ("serial", "pool", "master-worker", "serial"):
    faulthandler.dump_traceback_later(90, exit=True)
    ctx = RunContext(config, seed=0)
    scores = make_executor(name, n_workers=2).run(dataset, ctx)
    faulthandler.cancel_dump_traceback_later()
    digest = hashlib.sha256(
        scores.voxels.tobytes() + scores.accuracies.tobytes()).hexdigest()
    plan = ctx.metadata.get("blocking_plan", {})  # in-process runs only
    print(name, plan.get("engine_threads"), plan.get("tile_cols"), digest)
"""


def _python(code: str, timeout: float, tmp_path: Path) -> str:
    """Run ``code`` in a fresh interpreter; returns its stdout.

    Output goes to files, not pipes, and the child gets its own session:
    deadlocked pool workers would hold a pipe open past the watchdog's
    exit, and are killed with the group either way.
    """
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with out.open("w") as o, err.open("w") as e:
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=o, stderr=e, start_new_session=True,
        )
        try:
            returncode = proc.wait(timeout)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
    assert returncode == 0, err.read_text()
    return out.read_text()


def test_serial_then_pool_then_thread_ranks_bitwise_equal(tmp_path):
    stdout = _python(SCENARIO, 400, tmp_path)
    lines = [line.split() for line in stdout.splitlines()]
    assert [line[0] for line in lines] == [
        "serial", "pool", "master-worker", "serial"
    ]
    # The serial runs really walked 16-column chunks on a 4-thread pool
    # before (and after) the forks.
    assert lines[0][1:3] == lines[3][1:3] == ["4", "16"]
    assert len({line[3] for line in lines}) == 1


def test_tcp_worker_import_leaves_scipy_submodules_out(tmp_path):
    """Every spawned TCP worker (and every ``setup_s``) pays the package
    import; ``scipy.stats`` / ``scipy.sparse`` load at their use sites."""
    loaded = _python(
        "import sys, repro.parallel.tcp_worker\n"
        "print([m for m in ('scipy.stats', 'scipy.sparse') if m in sys.modules])",
        120,
        tmp_path,
    )
    assert loaded.strip() == "[]"
