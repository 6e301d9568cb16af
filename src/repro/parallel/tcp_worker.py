"""Every worker rank's entry, and the TCP worker process around it.

:func:`run_worker` is the rank program of the master/worker fleet on
either transport — thread ranks call it as TCP worker processes do:
receive the run's config and its input from the rank-0 broadcast (the
master's windows, or the dataset), serve the pull protocol to its end,
report (TAG_DONE) so the master's trace covers work that happened
here.

:func:`serve` is one process, one rank, joining a listening master
(:class:`~repro.parallel.transport.TcpListener`).  It runs in two kinds
of process:

* ``python -m repro.parallel.tcp_worker --connect HOST:PORT``, also
  exposed as ``fcma worker --connect HOST:PORT`` — the command to start
  on *other* hosts when the master runs with ``--transport tcp
  --listen``;
* a child of :func:`fork_server`, the pre-imported, :func:`warm`
  parent from which :func:`~repro.parallel.transport.spawn_local_workers`
  forks the master's *local* ranks, so they skip the interpreter boot
  and every first-use load.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
import warnings
from contextlib import suppress
from typing import NoReturn, Sequence

from .. import native
from ..core.engine import set_host_workers
from ..exec.context import RunContext
from .comm import Comm
from .shared import SharedWindows
from .tiled import TAG_DONE, rank_report, worker_loop
from .transport import TcpTransport

__all__ = ["fork_server", "main", "parse_endpoint", "run_worker", "serve", "warm"]


def parse_endpoint(value: str) -> tuple[str, int]:
    """Parse ``host:port`` (the ``--connect``/``--listen`` argument)."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def run_worker(comm: Comm) -> int:
    """The SPMD worker body every transport shares.

    Receives ``{"config", "source", "host_workers"}`` from the rank-0
    broadcast (``host_workers[rank]`` = the worker ranks sharing this
    rank's cores, the divisor of its engine thread budget), then runs
    :func:`~repro.parallel.tiled.worker_loop` — the only call of it
    under ``src/`` — on the source: the master's
    :class:`~repro.exec.stage_graph.Windows` (a thread rank), a
    :class:`~repro.parallel.shared.SharedWindows` handle it maps (a
    rank the master spawned), or the dataset (a rank that joined).  A
    rank that dies outside an item — one that cannot map the handle
    included — still reports, best effort (the master may be what it
    lost), naming the error.
    """
    setup = comm.bcast(None)
    set_host_workers(setup["host_workers"][comm.rank])
    ctx = RunContext(setup["config"])
    try:
        source = setup["source"]
        if isinstance(source, SharedWindows):
            source = source.open()
        return worker_loop(comm, source, ctx)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        with suppress(ConnectionError, OSError):
            comm.send(rank_report(ctx, error), 0, TAG_DONE)
        raise


def serve(host: str, port: int, timeout: float | None = None) -> int:
    """Join the master listening on ``host:port`` as one worker rank and
    serve it to the end; returns 0 (a failure raises)."""
    transport = TcpTransport.connect(host, port, timeout=timeout)
    try:
        run_worker(Comm(transport, transport.rank))
    finally:
        transport.close()
    return 0


def warm() -> None:
    """Pay, once, what a fresh worker process pays on its first items:
    the native library's load (:func:`repro.native.solver`) and the
    ``numpy.ma`` import ``np.unique`` makes on its first call (the
    fold-id table of the first ``score``).  :func:`fork_server` calls it
    before serving, so no forked rank does."""
    import numpy.ma  # noqa: F401 - imported for its side effect

    native.solver()


def fork_server(requests: int, replies: int) -> None:
    """The warm parent of a master's local worker ranks.

    Started once per master process by
    :func:`~repro.parallel.transport.spawn_local_workers`, with this
    module — numpy and the whole worker — already imported, and then
    :func:`warm`.  A single thread reads spawn requests from the
    ``requests`` pipe, one JSON line ``[host, port, timeout, n]`` each,
    and forks (``os.fork``) ``n`` children that run :func:`serve`,
    answering ``pid <pid>`` per child on the ``replies`` pipe.  A child never returns into this loop: it
    leaves through ``os._exit`` after writing ``exit <pid> <code>`` on
    ``replies`` — the master's only way to learn the code, because the
    server ignores SIGCHLD and so the kernel reaps its children.

    EOF on ``requests`` — the master closed it, or died — ends the
    server.  SIGINT is ignored here (a terminal's Ctrl-C is for the
    master, whose exit closes the pipe) and restored in the children.
    """
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Python >= 3.12 warns on fork() in a process with other OS
    # threads; this one's only others are BLAS's idle pool, which
    # OpenBLAS re-creates in the child (tests/exec/test_fork_safety.py).
    warnings.filterwarnings(
        "ignore", message=".*fork", category=DeprecationWarning
    )
    warm()
    with open(requests, "rb") as lines:
        for line in lines:
            host, port, timeout, n_workers = json.loads(line)
            for _ in range(n_workers):
                pid = os.fork()
                if pid == 0:
                    _forked_worker(requests, replies, host, port, timeout)
                os.write(replies, b"pid %d\n" % pid)


def _forked_worker(
    requests: int, replies: int, host: str, port: int, timeout: float | None
) -> NoReturn:
    """A :func:`fork_server` child: :func:`serve`, report, ``_exit``."""
    code = 1
    try:
        os.close(requests)  # the server alone sees the master's EOF
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        code = serve(host, port, timeout)
    except BaseException:  # noqa: BLE001 - this process ends below either way
        traceback.print_exc()
    finally:
        with suppress(OSError, ValueError):
            sys.stdout.flush()
            sys.stderr.flush()
        with suppress(OSError):  # the master may be gone
            os.write(replies, b"exit %d %d\n" % (os.getpid(), code))
        os._exit(code)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.parallel.tcp_worker",
        description="join a listening FCMA master as one TCP worker rank",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address the master is listening on",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="communicator timeout in seconds "
        "(default: FCMA_COMM_TIMEOUT or 120)",
    )
    args = parser.parse_args(argv)
    host, port = parse_endpoint(args.connect)
    return serve(host, port, args.timeout)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())
