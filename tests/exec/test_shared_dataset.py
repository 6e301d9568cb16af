"""Zero-copy dataset sharing behind the process-pool executor."""

import pickle

import numpy as np

from repro.exec.shared_dataset import attach_shared_dataset, share_dataset


class TestSharedMemory:
    def test_round_trip_equality(self, tiny_dataset):
        shm, handle = share_dataset(tiny_dataset)
        try:
            rebuilt, shm2 = attach_shared_dataset(handle)
            try:
                assert rebuilt.n_voxels == tiny_dataset.n_voxels
                assert rebuilt.epochs == tiny_dataset.epochs
                for s in tiny_dataset.subject_ids():
                    np.testing.assert_array_equal(
                        rebuilt.subject_data(s), tiny_dataset.subject_data(s)
                    )
            finally:
                del rebuilt
                shm2.close()
        finally:
            shm.close()
            shm.unlink()

    def test_rebuilt_arrays_are_zero_copy(self, tiny_dataset):
        """The rebuilt dataset's arrays must alias the segment buffer —
        no per-worker copy of the BOLD data."""
        shm, handle = share_dataset(tiny_dataset)
        try:
            rebuilt, shm2 = attach_shared_dataset(handle)
            try:
                subject = tiny_dataset.subject_ids()[0]
                arr = rebuilt.subject_data(subject)
                assert np.shares_memory(
                    arr, np.ndarray(arr.shape, np.float32, buffer=shm2.buf,
                                    offset=handle.subjects[0][1])
                )
            finally:
                del arr, rebuilt
                shm2.close()
        finally:
            shm.close()
            shm.unlink()

    def test_handle_payload_is_tiny(self, tiny_dataset):
        """The per-pool pickle must carry metadata only, not the BOLD
        arrays: this is the zero-copy fan-out guarantee."""
        shm, handle = share_dataset(tiny_dataset)
        try:
            payload = len(pickle.dumps(handle))
            naive = len(pickle.dumps(tiny_dataset))
            assert payload < tiny_dataset.nbytes() / 10
            assert payload < naive / 10
        finally:
            shm.close()
            shm.unlink()
