"""Every worker rank's entry, and the TCP worker process around it.

:func:`run_worker` is the rank program of the master/worker fleet on
either transport — thread ranks call it as TCP worker processes do:
receive the run's config + dataset from the rank-0 broadcast, serve the
pull protocol to its end, report (TAG_DONE) so the master's trace covers
work that happened here.

``python -m repro.parallel.tcp_worker --connect HOST:PORT`` is one
process, one rank, joining a listening master
(:class:`~repro.parallel.transport.TcpListener`); also exposed as ``fcma
worker --connect HOST:PORT`` — the command to start on *other* hosts
when the master runs with ``--transport tcp --listen``.
"""

from __future__ import annotations

import argparse
from contextlib import suppress
from typing import Sequence

from ..core.engine import set_host_workers
from ..exec.context import RunContext
from .comm import Comm
from .tiled import TAG_DONE, worker_loop
from .transport import TcpTransport

__all__ = ["main", "parse_endpoint", "run_worker"]


def parse_endpoint(value: str) -> tuple[str, int]:
    """Parse ``host:port`` (the ``--connect``/``--listen`` argument)."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def run_worker(comm: Comm) -> int:
    """The SPMD worker body every transport shares.

    Receives ``{"config", "dataset", "host_workers"}`` from the rank-0
    broadcast (``host_workers[rank]`` = the worker ranks sharing this
    rank's cores, the divisor of its engine thread budget), then runs
    :func:`~repro.parallel.tiled.worker_loop` — the only call of it
    under ``src/``.  A rank that dies outside an item still reports,
    best effort (the master may be what it lost), naming the error.
    """
    setup = comm.bcast(None)
    set_host_workers(setup["host_workers"][comm.rank])
    ctx = RunContext(setup["config"])
    try:
        return worker_loop(comm, setup["dataset"], ctx)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        with suppress(ConnectionError, OSError):
            comm.send({"export": ctx.export(), "error": error}, 0, TAG_DONE)
        raise


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
    transport = TcpTransport.connect(host, port, timeout=args.timeout)
    try:
        run_worker(Comm(transport, transport.rank))
    finally:
        transport.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())
