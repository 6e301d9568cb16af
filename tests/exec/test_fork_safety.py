"""Fork safety of the engine's thread pool, and the worker import diet.

A process-global ``ThreadPoolExecutor`` deadlocks any forked child: it
inherits the pool object but none of its threads, and its first engine
call waits forever.  The engine scopes its pool to one call instead;
this pins it with an in-process multi-thread engine run *followed by*
an ``os.fork()`` child running the engine on two threads.  The TCP fork
server forks every local rank from a process whose BLAS pool is
running; a 2-worker run with threaded ranks pins that.  Everything runs in a child interpreter so a
regression fails on a timeout instead of hanging the suite.
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

#: Arms a per-step watchdog (dumps every stack, exits non-zero), then
#: runs serial -> an ``os.fork()`` child's 2-thread engine walk ->
#: thread-rank master-worker -> serial again and prints one digest per
#: step (the fork step beside the parent's own walk of the same rows).
SCENARIO = """
import faulthandler, hashlib, os, sys
import numpy as np
os.sched_getaffinity = lambda pid: set(range(4))  # a 4-CPU mask anywhere
from repro.core import FCMAConfig, kernels
from repro.core.engine import GramEmitter, run_engine
from repro.core.pipeline import preprocess_dataset
from repro.data import SyntheticConfig, generate_dataset
from repro.exec import RunContext, make_executor

kernels.GRAM_CHUNK_COLS = 16  # four chunks (the walk's tiles) at 60 voxels
dataset = generate_dataset(SyntheticConfig(
    n_voxels=60, n_subjects=4, epochs_per_subject=8, epoch_length=12,
    n_informative=12, n_groups=3, seed=123))
config = FCMAConfig(variant="optimized-batched", task_voxels=16)

def select(name):
    faulthandler.dump_traceback_later(90, exit=True)
    ctx = RunContext(config, seed=0)
    scores = make_executor(name, n_workers=2).run(dataset, ctx)
    faulthandler.cancel_dump_traceback_later()
    digest = hashlib.sha256(
        scores.voxels.tobytes() + scores.accuracies.tobytes()).hexdigest()
    plan = ctx.metadata.get("blocking_plan", {})  # in-process runs only
    print(name, plan.get("engine_threads"), plan.get("tile_cols"), digest)

def walk_digest():
    grouped, z = preprocess_dataset(dataset)
    partials = run_engine(z, np.arange(16), grouped.epochs.epochs_per_subject(),
                          GramEmitter(), threads=2)
    return hashlib.sha256(partials.tobytes()).hexdigest()

select("serial")
print("walk", walk_digest())
sys.stdout.flush()
# Disarmed here: a child forked while the watchdog runs inherits its
# state without its thread, and re-arming would wait on that thread.
pid = os.fork()
if pid == 0:
    faulthandler.dump_traceback_later(90, exit=True)
    print("fork", walk_digest(), flush=True)
    os._exit(0)
status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
assert status == 0, f"forked child exited {status}"
select("master-worker")
select("serial")
"""


#: A 2-worker TCP tiles run whose tiles are two Gram chunks, so each
#: forked rank deals them over its 2-thread engine budget while
#: OpenBLAS, unpinned, runs its own pool; then the serial twin.  Every
#: interpreter of the run (master, fork server, so the forked ranks)
#: reads a 4-CPU mask from ``sitecustomize``.
TCP_SCENARIO = """
import faulthandler, hashlib
import numpy as np
from repro.core import FCMAConfig
from repro.core.engine import set_host_workers, thread_budget
from repro.core.kernels import GRAM_CHUNK_COLS
from repro.data import SyntheticConfig, generate_dataset
from repro.exec import RunContext, make_executor

faulthandler.dump_traceback_later(240, exit=True)
n_voxels = 2 * GRAM_CHUNK_COLS + 400
dataset = generate_dataset(SyntheticConfig(
    n_voxels=n_voxels, n_subjects=2, epochs_per_subject=4, epoch_length=6,
    n_informative=8, seed=3))
config = FCMAConfig(task_voxels=3, svm_tol=0.1)
voxels = np.array([5, 7, GRAM_CHUNK_COLS, n_voxels - 1, 0])
alone = set_host_workers(2)
print("rank-budget", thread_budget())
set_host_workers(alone)
for name, kwargs in (
    ("master-worker", {"transport": "tcp", "partition": "tiles"}),
    ("serial", {}),
):
    scores = make_executor(name, n_workers=2, **kwargs).run(
        dataset, RunContext(config), voxels)
    print(name, hashlib.sha256(
        scores.voxels.tobytes() + scores.accuracies.tobytes()).hexdigest())
"""


def _python(
    code: str, timeout: float, tmp_path: Path, env: dict[str, str] | None = None
) -> str:
    """Run ``code`` in a fresh interpreter (``env`` default: ours with
    ``PYTHONPATH`` = the source root); returns its stdout.

    Output goes to files, not pipes, and the child gets its own session:
    a deadlocked forked child (or forked TCP ranks, or their fork
    server) would hold a pipe open past the watchdog's exit, and is
    killed with the group either way.
    """
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with out.open("w") as o, err.open("w") as e:
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            env=env or dict(os.environ, PYTHONPATH=SRC),
            stdout=o, stderr=e, start_new_session=True,
        )
        try:
            returncode = proc.wait(timeout)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
    assert returncode == 0, err.read_text()
    return out.read_text()


def test_serial_then_fork_then_thread_ranks_bitwise_equal(tmp_path):
    stdout = _python(SCENARIO, 400, tmp_path)
    lines = [line.split() for line in stdout.splitlines()]
    assert [line[0] for line in lines] == [
        "serial", "walk", "fork", "master-worker", "serial"
    ]
    # The serial runs really walked 16-column chunks on a 4-thread pool
    # before (and after) the fork.
    assert lines[0][1:3] == lines[4][1:3] == ["4", "16"]
    # The forked child's 2-thread walk finished, with the parent's bits.
    assert lines[1][1] == lines[2][1]
    assert len({lines[i][3] for i in (0, 3, 4)}) == 1


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


def test_ranks_forked_beside_a_running_blas_pool_finish_bitwise(tmp_path):
    """Fork safety of the fork server: it imported numpy (so OpenBLAS
    started its threads) before it forks each rank, and each rank then
    runs the engine's own 2-thread deal.  Hangs fail on the timeout."""
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        "import os\nos.sched_getaffinity = lambda pid: set(range(4))\n"
    )
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = f"{site}{os.pathsep}{SRC}"
    stdout = _python(TCP_SCENARIO, 300, tmp_path, env)
    lines = dict(line.split() for line in stdout.splitlines())
    assert lines["rank-budget"] == "2"
    assert lines["master-worker"] == lines["serial"]
