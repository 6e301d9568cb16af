"""MPI-like communicator over pluggable transports.

The paper's cluster framework communicates "via MPI calls".  mpi4py is
not available in this environment, so this module provides the subset
of the MPI API the master/worker runtime uses — ``send``/``recv`` with
tags and ``bcast`` — over a *transport* seam:

* :class:`CommGroup` is the in-process thread transport (the historical
  default): rank mailboxes are queues and everything runs
  deterministically in one process.  Results through this transport are
  bitwise-identical to the pre-transport implementation.
* :class:`repro.parallel.transport.TcpTransport` speaks the same
  interface over length-prefixed socket frames, so the unchanged
  master-worker protocol spans real processes and hosts.

A transport implements the small :class:`Transport` surface —
``deliver`` / ``poll`` / ``stash`` / ``stats`` — and :class:`Comm`
layers the MPI-flavoured API (selective receive, broadcast, timeout
errors with rank/tag/elapsed context) on top.  Every blocking call is
a receive, so :class:`CommTimeoutError` has one source.
"""

from __future__ import annotations

import os
import queue
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Protocol

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "CommGroup",
    "CommStats",
    "CommTimeoutError",
    "TAG_PEER_LOST",
    "TAG_TELEMETRY",
    "Transport",
    "default_timeout",
    "payload_nbytes",
    "run_ranks",
]

#: Wildcard source rank for :meth:`Comm.recv`.
ANY_SOURCE = -1
#: Wildcard message tag for :meth:`Comm.recv`.
ANY_TAG = -1

#: Seconds before a blocked receive aborts (deadlock guard in
#: tests; generous enough for real work).  Overridable per run via the
#: ``FCMA_COMM_TIMEOUT`` environment variable or
#: ``FCMAConfig.comm_timeout``.
_DEFAULT_TIMEOUT = 120.0

#: Environment override for the default communicator timeout.
_TIMEOUT_ENV_VAR = "FCMA_COMM_TIMEOUT"

#: First tag reserved for internal (broadcast/control) messages; user
#: tags must stay below it.
_COLL_TAG_BASE = 1_000_000

#: Control tag a transport delivers when a peer dies (connection reset,
#: missed heartbeats).  Payload is ``None``; the source rank is the lost
#: peer.  Only transports with real failure domains (TCP) emit it — the
#: thread transport cannot lose a rank silently.
TAG_PEER_LOST = _COLL_TAG_BASE + 99

#: Control tag for live-telemetry frames piggybacked on the transport
#: (:meth:`Comm.send_telemetry`).  Workers emit small progress dicts at
#: a bounded rate; the master folds them into the active
#: :class:`~repro.obs.live.runtime.LiveRuntime` (or drops them when no
#: live plane is running).  Loops that predate the tag must ignore it.
TAG_TELEMETRY = _COLL_TAG_BASE + 98


def default_timeout() -> float:
    """The communicator timeout: ``FCMA_COMM_TIMEOUT`` env or 120 s."""
    raw = os.environ.get(_TIMEOUT_ENV_VAR)
    if raw is None:
        return _DEFAULT_TIMEOUT
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"{_TIMEOUT_ENV_VAR}={raw!r} is not a number"
        ) from exc
    if value <= 0:
        raise ValueError(f"{_TIMEOUT_ENV_VAR} must be positive, got {value}")
    return value


class CommTimeoutError(TimeoutError):
    """A blocked receive exceeded the transport timeout."""


@dataclass
class CommStats:
    """Per-rank traffic accounting a transport maintains.

    Byte counts are exact for framed transports (TCP) and payload-size
    estimates (:func:`payload_nbytes`) for the in-process transport,
    where no serialization happens.
    """

    bytes_sent: int = 0
    bytes_recv: int = 0
    msgs_sent: int = 0
    msgs_recv: int = 0

    def add_sent(self, nbytes: int) -> None:
        self.bytes_sent += int(nbytes)
        self.msgs_sent += 1

    def add_recv(self, nbytes: int) -> None:
        self.bytes_recv += int(nbytes)
        self.msgs_recv += 1

    def as_dict(self) -> dict[str, int]:
        return {
            "bytes_sent": self.bytes_sent,
            "bytes_recv": self.bytes_recv,
            "msgs_sent": self.msgs_sent,
            "msgs_recv": self.msgs_recv,
        }


def payload_nbytes(obj: Any) -> int:
    """Cheap wire-size estimate of a message payload.

    Counts numpy buffers exactly (they dominate) and containers
    recursively; everything else is a flat object-header estimate.  The
    thread transport uses this so ``comm.bytes_sent``/``bytes_recv``
    stay meaningful without serializing anything.
    """
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, float)):
        return int(nbytes)
    if isinstance(obj, (tuple, list)):
        return 56 + sum(payload_nbytes(item) for item in obj)
    if isinstance(obj, dict):
        return 64 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return 49 + len(obj)
    if obj is None:
        return 8
    if hasattr(obj, "__dataclass_fields__"):
        return 56 + sum(
            payload_nbytes(getattr(obj, name))
            for name in obj.__dataclass_fields__
        )
    return int(sys.getsizeof(obj, 64))


#: One queued message: ``(source, tag, payload, arrival_monotonic)``.
Message = tuple[int, int, Any, float]


class Transport(Protocol):
    """What a communicator fabric must provide per rank.

    ``deliver`` moves a message toward ``dest``'s mailbox (possibly over
    a wire) and returns the bytes charged to the sender; ``poll`` blocks
    for the next message addressed to ``rank``; ``stash`` is the
    per-rank buffer of messages popped but not yet matched (selective
    receive); ``stats`` exposes the per-rank traffic counters.
    """

    @property
    def size(self) -> int: ...

    @property
    def timeout(self) -> float: ...

    def deliver(self, src: int, dest: int, tag: int, payload: Any) -> int: ...

    def poll(self, rank: int, timeout: float) -> Message: ...

    def stash(self, rank: int) -> list[Message]: ...

    def stats(self, rank: int) -> CommStats: ...


class CommGroup:
    """The in-process thread transport: queue mailboxes.

    Shared state of one communicator; :meth:`comm` hands out the
    per-rank :class:`Comm` endpoints the SPMD ranks use.
    """

    def __init__(self, size: int, timeout: float | None = None):
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        self._size = size
        self._timeout = default_timeout() if timeout is None else timeout
        if self._timeout <= 0:
            raise ValueError("timeout must be positive")
        # One mailbox per destination rank holding Message tuples.
        self._boxes: list["queue.Queue[Message]"] = [
            queue.Queue() for _ in range(size)
        ]
        # Per-rank stash of messages popped while matching selectively.
        self._stashes: list[list[Message]] = [[] for _ in range(size)]
        self._stats = [CommStats() for _ in range(size)]

    @property
    def size(self) -> int:
        return self._size

    @property
    def timeout(self) -> float:
        return self._timeout

    def comm(self, rank: int) -> "Comm":
        """The communicator endpoint for one rank."""
        if not 0 <= rank < self._size:
            raise ValueError(f"rank {rank} out of range for size {self._size}")
        return Comm(self, rank)

    # -- Transport interface ---------------------------------------------

    def deliver(self, src: int, dest: int, tag: int, payload: Any) -> int:
        nbytes = payload_nbytes(payload)
        self._boxes[dest].put((src, tag, payload, time.monotonic()))
        self._stats[dest].add_recv(nbytes)
        return nbytes

    def poll(self, rank: int, timeout: float) -> Message:
        try:
            return self._boxes[rank].get(timeout=timeout)
        except queue.Empty:
            raise CommTimeoutError("mailbox empty") from None

    def stash(self, rank: int) -> list[Message]:
        return self._stashes[rank]

    def stats(self, rank: int) -> CommStats:
        return self._stats[rank]


class Comm:
    """One rank's endpoint: the MPI-like API surface over a transport."""

    def __init__(self, transport: Transport, rank: int):
        self._transport = transport
        self._rank = rank

    # -- introspection ---------------------------------------------------

    @property
    def rank(self) -> int:
        """This endpoint's rank (``Get_rank``)."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks (``Get_size``)."""
        return self._transport.size

    @property
    def transport(self) -> Transport:
        """The fabric this endpoint speaks over."""
        return self._transport

    @property
    def stats(self) -> CommStats:
        """This rank's traffic counters (bytes/messages sent+received)."""
        return self._transport.stats(self._rank)

    # -- point to point ----------------------------------------------------

    _COLL_TAG_BASE = _COLL_TAG_BASE

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Deliver ``obj`` to ``dest``'s mailbox (non-blocking buffered)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range")
        if not 0 <= tag < _COLL_TAG_BASE:
            raise ValueError(
                f"user tags must be in [0, {_COLL_TAG_BASE})"
            )
        nbytes = self._transport.deliver(self._rank, dest, tag, obj)
        self.stats.add_sent(nbytes)

    def _send_internal(self, obj: Any, dest: int, tag: int) -> None:
        nbytes = self._transport.deliver(self._rank, dest, tag, obj)
        self.stats.add_sent(nbytes)

    def send_telemetry(self, obj: Any, dest: int = 0) -> None:
        """Best-effort live-telemetry frame to ``dest`` (default master).

        Rides the control-tag space (:data:`TAG_TELEMETRY`), so it never
        collides with user tags, and swallows connection errors —
        telemetry must never take a healthy worker down with it.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range")
        try:
            self._send_internal(obj, dest, TAG_TELEMETRY)
        except (ConnectionError, OSError):
            pass

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[int, int, Any]:
        """Blocking receive; returns ``(source, tag, obj)``.

        Supports selective receive by source and/or tag; non-matching
        messages are stashed and re-examined first on later calls, so
        ordering per (source, tag) pair is preserved.
        """
        src, t, obj, _ = self.recv_timed(source=source, tag=tag)
        return src, t, obj

    def recv_timed(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Message:
        """:meth:`recv` plus the message's transport arrival time.

        The fourth element is the ``time.monotonic()`` stamp of when the
        message landed in this rank's mailbox — what the overlap
        accounting in the tiled worker loop subtracts its exposed wait
        from to compute ``overlap_hidden_seconds``.
        """
        stash = self._transport.stash(self._rank)
        for idx, (src, t, obj, arrived) in enumerate(stash):
            if (source in (ANY_SOURCE, src)) and (tag in (ANY_TAG, t)):
                return stash.pop(idx)
        started = time.monotonic()
        timeout = self._transport.timeout
        while True:
            remaining = timeout - (time.monotonic() - started)
            if remaining <= 0:
                self._raise_timeout(source, tag, started)
            try:
                src, t, obj, arrived = self._transport.poll(
                    self._rank, remaining
                )
            except CommTimeoutError:
                self._raise_timeout(source, tag, started)
            if (source in (ANY_SOURCE, src)) and (tag in (ANY_TAG, t)):
                return src, t, obj, arrived
            stash.append((src, t, obj, arrived))

    def _raise_timeout(self, source: int, tag: int, started: float) -> None:
        elapsed = time.monotonic() - started
        stashed = len(self._transport.stash(self._rank))
        raise CommTimeoutError(
            f"rank {self._rank}/{self.size}: recv(source="
            f"{'ANY' if source == ANY_SOURCE else source}, "
            f"tag={'ANY' if tag == ANY_TAG else tag}) timed out after "
            f"{elapsed:.1f}s (transport timeout {self._transport.timeout}s, "
            f"{stashed} non-matching message(s) stashed); raise "
            f"FCMA_COMM_TIMEOUT or FCMAConfig.comm_timeout if the work "
            f"is legitimately this slow"
        ) from None

    # -- broadcast ---------------------------------------------------------

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` to everyone; returns it."""
        tag = _COLL_TAG_BASE + 1
        if self._rank == root:
            for dest in range(self.size):
                if dest != root:
                    self._send_internal(obj, dest, tag)
            return obj
        _, _, received, _ = self.recv_timed(source=root, tag=tag)
        return received


def run_ranks(
    size: int,
    target: Callable[[Comm], Any],
    timeout: float | None = None,
) -> list[Any]:
    """SPMD launcher: run ``target(comm)`` on ``size`` thread ranks.

    Returns each rank's return value in rank order.  Exceptions in any
    rank are re-raised in the caller after all threads stop (the first
    failing rank wins).  ``timeout`` defaults to :func:`default_timeout`
    (the ``FCMA_COMM_TIMEOUT`` environment variable, or 120 s).
    """
    resolved = default_timeout() if timeout is None else timeout
    group = CommGroup(size, timeout=resolved)
    results: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []
    lock = threading.Lock()

    def runner(rank: int) -> None:
        try:
            results[rank] = target(group.comm(rank))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            with lock:
                errors.append((rank, exc))

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"rank-{r}")
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=resolved)
    if any(t.is_alive() for t in threads):
        raise TimeoutError("rank threads did not finish before timeout")
    if errors:
        rank, exc = min(errors, key=lambda e: e[0])
        raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
    return results
