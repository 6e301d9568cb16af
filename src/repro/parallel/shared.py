"""The master's equation-2 windows, mapped by the ranks it spawned.

The paper's master "first distributes brain data to the worker nodes";
on one host there is nothing to move.  A master that forks its own TCP
ranks makes the windows once, straight into an anonymous memory file
(:func:`memory_file`, ``os.memfd_create``), and broadcasts a
:class:`SharedWindows` handle — its pid, the file's descriptor, the
shape, the grouped epoch table — instead of the dataset.  Each rank
reopens ``/proc/<pid>/fd/<fd>`` read-only and maps it
(:meth:`SharedWindows.open`): one copy of the windows per host, and no
BOLD and no equation 2 on the ranks.

Nothing appears under ``/dev/shm`` and nothing needs unlinking: the
kernel frees the file once the master's descriptor is closed (at the
run's end) and the last mapping of it — the master's cached windows,
each rank's — is gone, however any of them ended.  Not
:mod:`multiprocessing.shared_memory`: a process that is not a
descendant of the creator (a fork-server child is not) attaches by
name through a resource-tracker interpreter it starts for the purpose
(~23 ms), and that tracker unlinks the segment when the process exits
(``track=False`` arrives in Python 3.13).
"""

from __future__ import annotations

import ctypes
import mmap
import os
import weakref
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from ..exec.stage_graph import Windows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.epochs import EpochTable

__all__ = ["SharedWindows", "memory_file"]

#: Fault every page in at ``mmap`` time: one call instead of a fault
#: per page on first touch.
_POPULATE = getattr(mmap, "MAP_POPULATE", 0)

# ``mmap.mmap`` keeps a dup of the descriptor for the mapping's life
# (until ``trackfd=False``, Python 3.13), which would keep every memory
# file open as long as any windows mapped from it; libc's does not.
_libc = ctypes.CDLL(None, use_errno=True)
_libc.mmap.restype = ctypes.c_void_p
_libc.mmap.argtypes = (
    ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_int, ctypes.c_int,
    ctypes.c_long,
)
_libc.munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
_MAP_FAILED = ctypes.c_void_p(-1).value


def _map(fd: int, shape: tuple[int, ...], writable: bool) -> np.ndarray:
    """A float32 ``shape`` array over a shared mapping of ``fd``, which
    it keeps alive (unmapped when the last view of it is gone); a
    mapping that is not ``writable`` is a read-only array."""
    nbytes = int(np.prod(shape)) * 4
    prot = mmap.PROT_READ | (mmap.PROT_WRITE if writable else 0)
    addr = _libc.mmap(None, nbytes, prot, mmap.MAP_SHARED | _POPULATE, fd, 0)
    if addr in (None, _MAP_FAILED):
        errno = ctypes.get_errno()
        raise OSError(errno, f"mmap: {os.strerror(errno)}")
    pages = (ctypes.c_char * nbytes).from_address(addr)
    weakref.finalize(pages, _libc.munmap, addr, nbytes).atexit = False
    view = memoryview(pages) if writable else memoryview(pages).toreadonly()
    return np.frombuffer(view, dtype=np.float32).reshape(shape)


@contextmanager
def memory_file(shape: tuple[int, ...]) -> Iterator[tuple[int, np.ndarray]]:
    """A new anonymous memory file sized for a float32 ``shape`` array:
    its descriptor, open for the block, and this process's writable
    mapping of it, which outlives the block."""
    fd = os.memfd_create("fcma-windows", os.MFD_CLOEXEC)
    try:
        os.ftruncate(fd, int(np.prod(shape)) * 4)
        yield fd, _map(fd, shape, writable=True)
    finally:
        os.close(fd)


class SharedWindows(NamedTuple):
    """A picklable handle on windows in another process's
    :func:`memory_file` on this host."""

    epochs: "EpochTable"
    pid: int
    fd: int
    shape: tuple[int, int, int]

    def open(self) -> Windows:
        """The windows, mapped read-only.  Raises ``OSError`` when the
        file cannot be opened (another host, the master gone)."""
        fd = os.open(f"/proc/{self.pid}/fd/{self.fd}", os.O_RDONLY | os.O_CLOEXEC)
        try:
            z = _map(fd, self.shape, writable=False)
        finally:
            os.close(fd)
        return Windows(self.epochs, z)
