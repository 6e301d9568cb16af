"""TCP worker process entry point: ``python -m repro.parallel.tcp_worker``.

One process, one worker rank.  Connects to a listening master
(:class:`~repro.parallel.transport.TcpListener`), receives the run's
config + dataset over the broadcast, serves the pull protocol (each
work item's kind says what to run), then ships its telemetry back
(TAG_DONE) so the master's trace covers work that happened in this
process.

Also exposed as ``fcma worker --connect HOST:PORT`` — the command to
start on *other* hosts when the master runs with
``--transport tcp --listen``.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from ..core.engine import set_host_workers
from ..exec.context import RunContext
from .comm import Comm, default_timeout
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
    broadcast, pulls work until stopped, then reports
    telemetry:
    ``{"export": <RunContext.export()>, "stats": <comm byte counters>,
    "completed": <n items>}`` under TAG_DONE.  Returns the completed
    item count.
    """
    setup = comm.bcast(None)
    set_host_workers(setup.get("host_workers", {}).get(comm.rank, 1))
    ctx = RunContext(setup["config"])
    completed = worker_loop(comm, setup["dataset"], ctx)
    stats = comm.stats
    ctx.increment("comm.bytes_sent", stats.bytes_sent)
    ctx.increment("comm.bytes_recv", stats.bytes_recv)
    comm.send(
        {
            "rank": comm.rank,
            "export": ctx.export(),
            "stats": stats.as_dict(),
            "completed": completed,
        },
        0,
        TAG_DONE,
    )
    return completed


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
    timeout = args.timeout if args.timeout is not None else default_timeout()
    transport = TcpTransport.connect(host, port, timeout=timeout)
    try:
        comm = Comm(transport, transport.rank)
        run_worker(comm)
    finally:
        transport.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())
