"""Zero-copy dataset sharing for the process-pool executor.

The master packs every subject's BOLD array into a single
:class:`multiprocessing.shared_memory.SharedMemory` segment and sends
workers only a :class:`SharedDatasetHandle` — segment name plus subject
offsets — so the per-pool pickle payload is a few hundred bytes no
matter how large the scan is.  Each worker attaches views over the
segment and rebuilds the dataset without copying.

A leaf module: it imports the data model only, never the executors.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..data.dataset import FMRIDataset
from ..data.epochs import EpochTable
from ..data.mask import BrainMask

__all__ = ["SharedDatasetHandle", "attach_shared_dataset", "share_dataset"]


@dataclass(frozen=True)
class SharedDatasetHandle:
    """Picklable recipe for rebuilding a dataset from shared memory.

    Carries only metadata — the BOLD arrays themselves live in the named
    shared-memory segment — so pickling the handle costs bytes, not the
    gigabytes the paper's datasets occupy.
    """

    #: Name of the shared-memory segment holding all subjects' BOLD data.
    shm_name: str
    #: Per subject: (subject id, byte offset into the segment, array shape).
    subjects: tuple[tuple[int, int, tuple[int, int]], ...]
    epochs: EpochTable
    mask: BrainMask | None
    name: str


def share_dataset(
    dataset: FMRIDataset,
) -> tuple[shared_memory.SharedMemory, SharedDatasetHandle]:
    """Pack a dataset's BOLD arrays into one shared-memory segment.

    Returns the owning segment (caller must ``close()`` and ``unlink()``
    it when the pool is done) and the handle workers rebuild from.
    """
    total = dataset.nbytes()
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    subjects: list[tuple[int, int, tuple[int, int]]] = []
    offset = 0
    for subject in dataset.subject_ids():
        arr = dataset.subject_data(subject)
        view = np.ndarray(arr.shape, dtype=np.float32, buffer=shm.buf, offset=offset)
        view[:] = arr
        subjects.append((subject, offset, arr.shape))
        offset += arr.nbytes
    handle = SharedDatasetHandle(
        shm_name=shm.name,
        subjects=tuple(subjects),
        epochs=dataset.epochs,
        mask=dataset.mask,
        name=dataset.name,
    )
    return shm, handle


def attach_shared_dataset(
    handle: SharedDatasetHandle,
) -> tuple[FMRIDataset, shared_memory.SharedMemory]:
    """Rebuild a dataset as zero-copy views over the shared segment.

    The returned dataset's subject arrays alias the segment's buffer
    (``FMRIDataset`` keeps already-contiguous float32 arrays as-is), so
    the caller must hold the returned segment open for the dataset's
    lifetime and treat the data as read-only.
    """
    # Python 3.11's SharedMemory registers attachments with the resource
    # tracker as if they were owners (bpo-39959).  Pool workers share the
    # parent's tracker process, whose cache is a *set*: attach
    # registrations dedupe against the owner's and the single unregister
    # at unlink() cleans them all up, so no correction is needed here —
    # an explicit per-attach unregister would instead strip the owner's
    # entry and make unlink() crash the tracker with a KeyError.
    shm = shared_memory.SharedMemory(name=handle.shm_name, create=False)
    data = {
        subject: np.ndarray(shape, dtype=np.float32, buffer=shm.buf, offset=offset)
        for subject, offset, shape in handle.subjects
    }
    dataset = FMRIDataset(data, handle.epochs, mask=handle.mask, name=handle.name)
    return dataset, shm
