"""MPI-like communicator over pluggable transports.

The paper's cluster framework communicates "via MPI calls".  mpi4py is
not available in this environment, so this module provides the subset
of the MPI API the master/worker runtime uses — ``send``/``recv`` with
tags and ``bcast`` — over a *transport* seam:

* :class:`CommGroup` is the in-process thread transport (the
  default): rank mailboxes are queues and the ranks are threads of this
  process (:class:`RankThreads`).  Nothing crosses a wire, so its byte
  counters are :func:`payload_nbytes` — what the wire would carry.
* :class:`repro.parallel.transport.TcpTransport` speaks the same
  interface over length-prefixed socket frames, so the unchanged
  master-worker protocol spans real processes and hosts.

A transport implements the small :class:`Transport` surface —
``deliver`` / ``poll`` / ``stash`` / ``stats`` — and :class:`Comm`
layers the MPI-flavoured API (selective receive, broadcast, timeout
errors with rank/tag/elapsed context) on top.  Every blocking call is
a receive, so :class:`CommTimeoutError` has one source, and a lost rank
is :data:`TAG_PEER_LOST` in rank 0's mailbox on both.
"""

from __future__ import annotations

import os
import pickle
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Protocol

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "CommGroup",
    "CommStats",
    "CommTimeoutError",
    "RankThreads",
    "TAG_PEER_LOST",
    "Transport",
    "default_timeout",
    "payload_nbytes",
    "payload_parts",
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

#: Control tag of :meth:`Comm.bcast` messages.
_TAG_BCAST = _COLL_TAG_BASE + 1

#: Control tag a transport delivers when a peer dies (connection reset,
#: missed heartbeats, a rank thread that exited abnormally).  Payload is
#: ``None``; the source rank is the lost peer.  No transport loses a
#: rank silently.
TAG_PEER_LOST = _COLL_TAG_BASE + 99


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

    Byte counts are the frame bodies sent for framed transports (TCP)
    and the same size measured without sending
    (:func:`payload_nbytes`) for the in-process transport.
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


def payload_parts(obj: Any) -> list[Any]:
    """A message payload as the TCP transport frames it: its pickle
    (protocol 5), then its numpy buffers out of band — referenced,
    never copied."""
    buffers: list[pickle.PickleBuffer] = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    return [data, *(b.raw() for b in buffers)]


def payload_nbytes(obj: Any) -> int:
    """Wire size of a message payload: the bytes of its
    :func:`payload_parts`.  The thread transport charges this, so
    ``comm.bytes_*`` mean the same on both transports.
    """
    return sum(len(memoryview(p)) for p in payload_parts(obj))


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
        # Threads share a broadcast by reference: only its pickle counts.
        shared = tag == _TAG_BCAST
        nbytes = len(payload_parts(payload)[0]) if shared else payload_nbytes(payload)
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
    def stats(self) -> CommStats:
        """This rank's traffic counters (bytes/messages sent+received)."""
        return self._transport.stats(self._rank)

    # -- point to point ----------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Deliver ``obj`` to ``dest``'s mailbox (non-blocking buffered)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range")
        if not 0 <= tag < _COLL_TAG_BASE:
            raise ValueError(
                f"user tags must be in [0, {_COLL_TAG_BASE})"
            )
        self._send_internal(obj, dest, tag)

    def _send_internal(self, obj: Any, dest: int, tag: int) -> None:
        nbytes = self._transport.deliver(self._rank, dest, tag, obj)
        self.stats.add_sent(nbytes)

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
        if self._rank == root:
            for dest in range(self.size):
                if dest != root:
                    self._send_internal(obj, dest, _TAG_BCAST)
            return obj
        _, _, received, _ = self.recv_timed(source=root, tag=_TAG_BCAST)
        return received


class RankThreads:
    """Ranks of one :class:`CommGroup` as threads of this process, each
    running ``target(comm)``.  A worker rank that exits abnormally is a
    lost peer — rank 0's mailbox gets :data:`TAG_PEER_LOST` at once, so
    a master blocked in ``recv`` re-queues or gives up now instead of at
    the timeout — and its exception is kept in :attr:`failures`.
    """

    def __init__(
        self,
        group: CommGroup,
        ranks: Iterable[int],
        target: Callable[[Comm], Any],
    ):
        self._group = group
        self._target = target
        #: Return value per rank that finished.
        self.results: dict[int, Any] = {}
        #: ``(rank, exception)`` per rank that raised, earliest first.
        self.failures: list[tuple[int, BaseException]] = []
        self._threads = [
            threading.Thread(target=self._run, args=(r,), name=f"rank-{r}")
            for r in ranks
        ]
        for t in self._threads:
            t.start()

    def _run(self, rank: int) -> None:
        try:
            self.results[rank] = self._target(self._group.comm(rank))
        except BaseException as exc:  # noqa: BLE001 - kept for the caller
            self.failures.append((rank, exc))
            if rank != 0:  # what a closed socket is to the TCP transport
                self._group.deliver(rank, 0, TAG_PEER_LOST, None)

    def join(self) -> None:
        """Wait for every rank, each up to the group's timeout."""
        for t in self._threads:
            t.join(timeout=self._group.timeout)
        if any(t.is_alive() for t in self._threads):
            raise TimeoutError("rank threads did not finish before timeout")


def run_ranks(
    size: int,
    target: Callable[[Comm], Any],
    timeout: float | None = None,
) -> list[Any]:
    """SPMD launcher: run ``target(comm)`` on ``size`` thread ranks.

    Returns each rank's return value in rank order.  If any rank raised,
    the *earliest* failure is re-raised in the caller (chained as
    ``__cause__``) after all threads stop: a rank that died takes its
    peers down by timeout or peer loss, and those are consequences.
    ``timeout`` defaults to :func:`default_timeout` (the
    ``FCMA_COMM_TIMEOUT`` environment variable, or 120 s).
    """
    ranks = RankThreads(CommGroup(size, timeout=timeout), range(size), target)
    ranks.join()
    if ranks.failures:
        rank, exc = ranks.failures[0]
        raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
    return [ranks.results.get(r) for r in range(size)]
