"""Parallel runtime: MPI-like comm over pluggable transports (in-process
threads, length-prefixed TCP) and the one master/worker pull loop that
serves 1-D row tasks or 2-D tiles (:mod:`repro.parallel.tiled`)."""

from .comm import (
    ANY_SOURCE,
    ANY_TAG,
    Comm,
    CommGroup,
    CommStats,
    CommTimeoutError,
    TAG_PEER_LOST,
    Transport,
    default_timeout,
    run_ranks,
)
from .tiled import (
    TaskFailedError,
    WorkPlan,
    master_loop,
    worker_loop,
)
from .transport import TcpListener, TcpTransport, spawn_local_workers

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "CommGroup",
    "CommStats",
    "CommTimeoutError",
    "TAG_PEER_LOST",
    "TaskFailedError",
    "TcpListener",
    "TcpTransport",
    "Transport",
    "WorkPlan",
    "default_timeout",
    "master_loop",
    "run_ranks",
    "spawn_local_workers",
    "worker_loop",
]
