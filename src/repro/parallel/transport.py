"""Length-prefixed TCP transport: the master-worker protocol over sockets.

This is the second implementation of the :class:`~repro.parallel.comm.Transport`
seam (the first is the in-process :class:`~repro.parallel.comm.CommGroup`).
It runs the *unchanged* master-worker protocol across real processes and
hosts:

* **Star topology.**  Rank 0 (the master) listens; each worker connects
  and is assigned the next rank in accept order.  Worker↔worker frames
  are routed through the master without unpickling — the router reads
  the fixed header, sees ``dest != 0``, and relays the raw bytes.
* **Frames.**  Every frame is ``magic | kind | body``.  Message bodies
  are pickle protocol 5 with out-of-band numpy buffers
  (``buffer_callback``), so large arrays are sent as raw length-prefixed
  chunks with no serialization copy; on receive they land in writable
  ``bytearray`` buffers.
* **Handshake.**  Worker sends HELLO, master replies WELCOME with the
  assigned rank and world size.
* **Liveness.**  Both sides exchange heartbeat frames; a closed socket
  or a stale peer turns into a :data:`~repro.parallel.comm.TAG_PEER_LOST`
  message in the master's mailbox, which the master loop converts into
  a task re-queue.  A clean shutdown sends BYE first, so normal exits
  are not reported as losses.

Timeouts come from :func:`repro.parallel.comm.default_timeout` (the
``FCMA_COMM_TIMEOUT`` environment variable or ``FCMAConfig.comm_timeout``
via the executor) unless given explicitly.
"""

from __future__ import annotations

import os
import pickle
import queue
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .comm import (
    CommStats,
    CommTimeoutError,
    Message,
    TAG_PEER_LOST,
    default_timeout,
    payload_parts,
)

__all__ = [
    "TcpListener",
    "TcpTransport",
    "spawn_local_workers",
    "worker_command",
]

_MAGIC = b"FCM1"

# Frame kinds.
_K_MSG = 1        # routed message: src, dest, tag, pickled payload
_K_HELLO = 2      # worker -> master: join request
_K_WELCOME = 3    # master -> worker: assigned rank + world size
_K_HEARTBEAT = 4  # either direction: liveness
_K_BYE = 5        # either direction: clean shutdown, not a loss

_HEAD = struct.Struct("!iiqI")  # src, dest, tag, n_buffers
_LEN = struct.Struct("!Q")
_PAIR = struct.Struct("!ii")

#: Seconds between heartbeat frames.
_HEARTBEAT_INTERVAL = 1.0
#: Seconds of silence after which a peer is declared lost.  A killed
#: process is detected immediately via EOF; this only catches network
#: hangs, so it is deliberately generous.
_HEARTBEAT_TIMEOUT = 30.0


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes into a writable buffer (EOF -> error)."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:], n - got)
        if k == 0:
            raise ConnectionError("peer closed the connection")
        got += k
    return buf


def _read_frame(
    sock: socket.socket,
) -> tuple[int, tuple[int, int, int] | None, list[bytearray]]:
    """Read one frame: ``(kind, msg_header, chunks)``.

    For ``_K_MSG`` the header is ``(src, dest, tag)`` and ``chunks`` is
    the pickle body followed by its out-of-band buffers; for WELCOME
    the two ints ride in ``msg_header[:2]``; other kinds carry nothing.
    """
    magic = bytes(_recv_exact(sock, 4))
    if magic != _MAGIC:
        raise ConnectionError(f"bad frame magic {magic!r}")
    kind = _recv_exact(sock, 1)[0]
    if kind == _K_MSG:
        src, dest, tag, nbufs = _HEAD.unpack(bytes(_recv_exact(sock, _HEAD.size)))
        lens = [
            _LEN.unpack(bytes(_recv_exact(sock, _LEN.size)))[0]
            for _ in range(nbufs)
        ]
        chunks = [_recv_exact(sock, n) for n in lens]
        return kind, (src, dest, tag), chunks
    if kind == _K_WELCOME:
        a, b = _PAIR.unpack(bytes(_recv_exact(sock, _PAIR.size)))
        return kind, (a, b, 0), []
    return kind, None, []


def _msg_frame(src: int, dest: int, tag: int, payload: Any) -> list[Any]:
    """Encode a message as sendable parts (header bytes + buffers)."""
    chunks = payload_parts(payload)
    head = bytearray(_MAGIC)
    head.append(_K_MSG)
    head += _HEAD.pack(src, dest, tag, len(chunks))
    for c in chunks:
        head += _LEN.pack(len(memoryview(c)))
    return [bytes(head), *chunks]


def _raw_frame(src: int, dest: int, tag: int, chunks: Sequence[Any]) -> list[Any]:
    """Re-frame already-serialized chunks (master-side relay path)."""
    head = bytearray(_MAGIC)
    head.append(_K_MSG)
    head += _HEAD.pack(src, dest, tag, len(chunks))
    for c in chunks:
        head += _LEN.pack(len(c))
    return [bytes(head), *chunks]


def _control_frame(kind: int, a: int = 0, b: int = 0) -> bytes:
    head = bytearray(_MAGIC)
    head.append(kind)
    if kind == _K_WELCOME:
        head += _PAIR.pack(a, b)
    return bytes(head)


def _decode(chunks: Sequence[bytearray]) -> Any:
    return pickle.loads(bytes(chunks[0]), buffers=list(chunks[1:]))


@dataclass
class _Peer:
    """Master-side state for one connected worker."""

    rank: int
    sock: socket.socket
    lock: threading.Lock = field(default_factory=threading.Lock)
    last_seen: float = field(default_factory=time.monotonic)
    alive: bool = True
    departed: bool = False  # sent BYE: a clean exit, not a loss


class TcpListener:
    """Bound-but-not-yet-connected master endpoint.

    Splitting bind from accept lets the caller learn the chosen port
    (``port=0``) and launch worker processes *before* blocking in
    :meth:`accept`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(128)

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` workers should connect to."""
        host, port = self._server.getsockname()[:2]
        return str(host), int(port)

    def accept(
        self, n_workers: int, timeout: float | None = None
    ) -> "TcpTransport":
        """Accept ``n_workers`` connections and hand out ranks.

        Ranks are assigned in accept order (1..n).  Returns the rank-0
        transport endpoint with its router threads running.
        """
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        resolved = default_timeout() if timeout is None else timeout
        transport = TcpTransport(
            rank=0, size=n_workers + 1, timeout=resolved
        )
        self._server.settimeout(resolved)
        try:
            for rank in range(1, n_workers + 1):
                try:
                    sock, _addr = self._server.accept()
                except socket.timeout:
                    raise CommTimeoutError(
                        f"master: only {rank - 1}/{n_workers} workers "
                        f"connected within {resolved}s"
                    ) from None
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                kind, _, _ = _read_frame(sock)
                if kind != _K_HELLO:
                    sock.close()
                    raise ConnectionError(
                        f"expected HELLO from connecting worker, got kind {kind}"
                    )
                sock.sendall(_control_frame(_K_WELCOME, rank, n_workers + 1))
                transport._add_peer(_Peer(rank=rank, sock=sock))
        finally:
            self._server.close()
        transport._start()
        return transport

    def close(self) -> None:
        self._server.close()


class TcpTransport:
    """One process's endpoint of the TCP fabric (master or worker).

    Implements the :class:`~repro.parallel.comm.Transport` protocol for
    exactly one local rank; construct via :meth:`TcpListener.accept`
    (master) or :meth:`connect` (worker).
    """

    def __init__(
        self,
        rank: int,
        size: int,
        timeout: float,
        heartbeat_interval: float = _HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = _HEARTBEAT_TIMEOUT,
    ):
        self._rank = rank
        self._size = size
        self._timeout = timeout
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._box: "queue.Queue[Message]" = queue.Queue()
        self._stash: list[Message] = []
        self._local_stats = CommStats()
        self._closed = threading.Event()
        self._threads: list[threading.Thread] = []
        # Master-side routing state.
        self._peers: dict[int, _Peer] = {}
        # Worker-side link to the master.
        self._master_sock: socket.socket | None = None
        self._master_lock = threading.Lock()
        self._master_last_seen = time.monotonic()

    # -- construction ----------------------------------------------------

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        timeout: float | None = None,
        heartbeat_interval: float = _HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = _HEARTBEAT_TIMEOUT,
    ) -> "TcpTransport":
        """Join the fabric as a worker; blocks until WELCOME."""
        resolved = default_timeout() if timeout is None else timeout
        sock = socket.create_connection((host, port), timeout=resolved)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(_control_frame(_K_HELLO))
        kind, header, _ = _read_frame(sock)
        if kind != _K_WELCOME or header is None:
            raise ConnectionError(f"expected WELCOME, got kind {kind}")
        rank, size = header[0], header[1]
        sock.settimeout(None)
        transport = cls(
            rank=rank,
            size=size,
            timeout=resolved,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
        )
        transport._master_sock = sock
        transport._start()
        return transport

    def _add_peer(self, peer: _Peer) -> None:
        self._peers[peer.rank] = peer

    def _start(self) -> None:
        if self._rank == 0:
            for peer in self._peers.values():
                t = threading.Thread(
                    target=self._route, args=(peer,), daemon=True,
                    name=f"tcp-route-{peer.rank}",
                )
                t.start()
                self._threads.append(t)
        else:
            t = threading.Thread(
                target=self._reader, daemon=True, name="tcp-reader"
            )
            t.start()
            self._threads.append(t)
        hb = threading.Thread(
            target=self._heartbeat, daemon=True, name="tcp-heartbeat"
        )
        hb.start()
        self._threads.append(hb)

    # -- Transport interface ---------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    @property
    def timeout(self) -> float:
        return self._timeout

    @property
    def rank(self) -> int:
        """The single local rank this endpoint serves."""
        return self._rank

    def _check(self, rank: int) -> None:
        if rank != self._rank:
            raise ValueError(
                f"TCP endpoint serves rank {self._rank}, not {rank}"
            )

    def deliver(self, src: int, dest: int, tag: int, payload: Any) -> int:
        parts = _msg_frame(src, dest, tag, payload)
        nbytes = sum(len(memoryview(p)) for p in parts[1:])
        if dest == self._rank:
            self._local_deliver(src, tag, _decode(parts[1:]), nbytes)
        elif self._rank == 0:
            peer = self._peers.get(dest)
            if peer is None:
                raise ValueError(f"dest {dest} out of range")
            if not peer.alive:
                # The loss has (or will) put TAG_PEER_LOST in our own
                # mailbox; the message is dropped, not an error.
                return nbytes
            self._send_parts(peer.sock, peer.lock, parts)
        else:
            sock = self._master_sock
            if sock is None or self._closed.is_set():
                raise ConnectionError("transport is closed")
            self._send_parts(sock, self._master_lock, parts)
        return nbytes

    def poll(self, rank: int, timeout: float) -> Message:
        self._check(rank)
        try:
            return self._box.get(timeout=timeout)
        except queue.Empty:
            raise CommTimeoutError("mailbox empty") from None

    def stash(self, rank: int) -> list[Message]:
        self._check(rank)
        return self._stash

    def stats(self, rank: int) -> CommStats:
        self._check(rank)
        return self._local_stats

    def alive_workers(self) -> list[int]:
        """Worker ranks still connected (master endpoint only)."""
        return sorted(r for r, p in self._peers.items() if p.alive)

    def peer_hosts(self) -> dict[int, str]:
        """Address each worker rank connected from (master endpoint only)."""
        return {r: p.sock.getpeername()[0] for r, p in self._peers.items()}

    # -- internals -------------------------------------------------------

    def _local_deliver(self, src: int, tag: int, payload: Any, nbytes: int) -> None:
        self._box.put((src, tag, payload, time.monotonic()))
        self._local_stats.add_recv(nbytes)

    @staticmethod
    def _send_parts(
        sock: socket.socket, lock: threading.Lock, parts: Sequence[Any]
    ) -> None:
        try:
            with lock:
                for part in parts:
                    sock.sendall(part)
        except OSError as exc:
            raise ConnectionError(f"send failed: {exc}") from exc

    def _route(self, peer: _Peer) -> None:
        """Master-side per-worker reader: deliver to rank 0 or relay."""
        try:
            while not self._closed.is_set():
                kind, header, chunks = _read_frame(peer.sock)
                peer.last_seen = time.monotonic()
                if kind == _K_MSG and header is not None:
                    src, dest, tag = header
                    if dest == 0:
                        nbytes = sum(len(c) for c in chunks)
                        self._local_deliver(src, tag, _decode(chunks), nbytes)
                    else:
                        target = self._peers.get(dest)
                        if target is not None and target.alive:
                            self._send_parts(
                                target.sock,
                                target.lock,
                                _raw_frame(src, dest, tag, chunks),
                            )
                elif kind == _K_BYE:
                    peer.departed = True
                    return
                # heartbeats only refresh last_seen
        except (ConnectionError, OSError):
            pass
        finally:
            if not peer.departed and not self._closed.is_set():
                self._peer_lost(peer)

    def _reader(self) -> None:
        """Worker-side reader: everything arrives from the master link."""
        sock = self._master_sock
        assert sock is not None
        try:
            while not self._closed.is_set():
                kind, header, chunks = _read_frame(sock)
                self._master_last_seen = time.monotonic()
                if kind == _K_MSG and header is not None:
                    src, _dest, tag = header
                    nbytes = sum(len(c) for c in chunks)
                    self._local_deliver(src, tag, _decode(chunks), nbytes)
                elif kind == _K_BYE:
                    return
        except (ConnectionError, OSError):
            if not self._closed.is_set():
                self._local_deliver(0, TAG_PEER_LOST, None, 0)

    def _heartbeat(self) -> None:
        while not self._closed.wait(self._heartbeat_interval):
            now = time.monotonic()
            if self._rank == 0:
                for peer in list(self._peers.values()):
                    if not peer.alive or peer.departed:
                        continue
                    if now - peer.last_seen > self._heartbeat_timeout:
                        self._peer_lost(peer)
                        continue
                    try:
                        self._send_parts(
                            peer.sock, peer.lock, [_control_frame(_K_HEARTBEAT)]
                        )
                    except ConnectionError:
                        self._peer_lost(peer)
            else:
                sock = self._master_sock
                if sock is None:
                    return
                if now - self._master_last_seen > self._heartbeat_timeout:
                    self._local_deliver(0, TAG_PEER_LOST, None, 0)
                    return
                try:
                    self._send_parts(
                        sock, self._master_lock, [_control_frame(_K_HEARTBEAT)]
                    )
                except ConnectionError:
                    if not self._closed.is_set():
                        self._local_deliver(0, TAG_PEER_LOST, None, 0)
                    return

    def _peer_lost(self, peer: _Peer) -> None:
        """Mark a worker dead and tell the master loop (idempotent)."""
        if not peer.alive:
            return
        peer.alive = False
        try:
            peer.sock.close()
        except OSError:
            pass
        self._local_deliver(peer.rank, TAG_PEER_LOST, None, 0)

    def close(self) -> None:
        """Clean shutdown: BYE to peers, close sockets, stop threads."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self._rank == 0:
            for peer in self._peers.values():
                if peer.alive and not peer.departed:
                    try:
                        self._send_parts(
                            peer.sock, peer.lock, [_control_frame(_K_BYE)]
                        )
                    except ConnectionError:
                        pass
                try:
                    peer.sock.close()
                except OSError:
                    pass
        else:
            sock = self._master_sock
            if sock is not None:
                try:
                    self._send_parts(
                        sock, self._master_lock, [_control_frame(_K_BYE)]
                    )
                except ConnectionError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# -- worker process helpers ------------------------------------------------


def worker_command(
    host: str,
    port: int,
    timeout: float | None = None,
    python: str | None = None,
) -> list[str]:
    """The argv that starts one TCP worker process against ``host:port``."""
    cmd = [
        python or sys.executable,
        "-m",
        "repro.parallel.tcp_worker",
        "--connect",
        f"{host}:{port}",
    ]
    if timeout is not None:
        cmd += ["--timeout", str(timeout)]
    return cmd


def spawn_local_workers(
    address: tuple[str, int],
    n_workers: int,
    timeout: float | None = None,
) -> list[subprocess.Popen[bytes]]:
    """Launch ``n_workers`` local worker processes joining ``address``.

    ``PYTHONPATH`` is extended with this package's source root so the
    children import the same ``repro`` regardless of the caller's cwd.
    """
    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    host, port = address
    cmd = worker_command(host, port, timeout=timeout)
    return [
        subprocess.Popen(cmd, env=env) for _ in range(n_workers)
    ]
