"""The Gram rule: one chunk-ordered definition of a dense linear kernel.

``repro.core.kernels.gram_chunks`` fixes how a voxel's ``A A^T`` is
rounded: the BLAS product of column chunk 0, plus the product of each
later chunk in ascending column order, in float32.  Everything that
builds a dense kernel — the serial score node and the tiled runtime's
workers, which each Gram only the chunks of their own column tile —
follows it, which is what makes "tiles == serial" a bitwise statement.

The oracle below is literally "matmul per chunk, add in order" over
chunk bounds written out by hand; it calls nothing from the module.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import (
    GRAM_CHUNK_COLS,
    gram_chunks,
    kernel_matrix_baseline,
    kernel_matrix_batched,
    sum_gram_partials,
)

C = 2048

#: The rule at the widths around one and two chunks, by hand.  A
#: one-column tail never stands alone: it joins the chunk before it.
BOUNDS = {
    C + 1: [(0, C + 1)],
    C + 2: [(0, C), (C, C + 2)],
    2 * C: [(0, C), (C, 2 * C)],
    2 * C + 1: [(0, C), (C, 2 * C + 1)],
}


def stacked(n: int, v: int = 5, m: int = 6, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((v, m, n)).astype(np.float32)


def oracle(x: np.ndarray, bounds: list[tuple[int, int]]) -> np.ndarray:
    """Per voxel: matmul of each chunk, added in order."""
    out = np.empty((x.shape[0], x.shape[1], x.shape[1]), dtype=np.float32)
    for i, a in enumerate(x):
        total = None
        for c0, c1 in bounds:
            product = a[:, c0:c1] @ a[:, c0:c1].T
            total = product if total is None else total + product
        out[i] = total
    return out


def test_the_constant_this_file_spells_out():
    assert GRAM_CHUNK_COLS == C


class TestChunks:
    @pytest.mark.parametrize("n", [1, 2, 300, C])
    def test_up_to_one_chunk_is_one_chunk(self, n):
        assert gram_chunks(n) == [(0, n)]

    @pytest.mark.parametrize("n", sorted(BOUNDS))
    def test_hand_written_bounds(self, n):
        assert gram_chunks(n) == BOUNDS[n]

    def test_wide_row(self):
        chunks = gram_chunks(34_470)
        assert len(chunks) == 17
        assert chunks[0] == (0, C) and chunks[-1] == (16 * C, 34_470)
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))

    def test_a_tile_selects_its_whole_chunks(self):
        assert gram_chunks(34_470, 2 * C, 4 * C) == [(2 * C, 3 * C), (3 * C, 4 * C)]
        assert gram_chunks(2 * C + 1, C) == [(C, 2 * C + 1)]

    @pytest.mark.parametrize(
        "start,stop", [(0, 100), (100, C), (C, 2 * C), (0, 2 * C + 2), (C, C)]
    )
    def test_a_tile_that_cuts_a_chunk_raises(self, start, stop):
        with pytest.raises(ValueError, match="not whole Gram chunks"):
            gram_chunks(2 * C + 1, start, stop)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_cols"):
            gram_chunks(0)


class TestKernels:
    @pytest.mark.parametrize("n", [1, 2, 300, C, C + 1])
    def test_one_chunk_is_the_single_matmul(self, n):
        x = stacked(n)
        single = np.matmul(x, x.transpose(0, 2, 1))
        assert kernel_matrix_batched(x).tobytes() == single.tobytes()
        assert kernel_matrix_baseline(x[0]).tobytes() == (x[0] @ x[0].T).tobytes()

    @pytest.mark.parametrize("n", sorted(BOUNDS))
    def test_equals_matmul_per_chunk_added_in_order(self, n):
        x = stacked(n, seed=n)
        expected = oracle(x, BOUNDS[n])
        assert kernel_matrix_batched(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [300, *sorted(BOUNDS), 5003])
    def test_baseline_and_batched_are_a_bitwise_pair(self, n):
        x = stacked(n, seed=n + 1)
        batched = kernel_matrix_batched(x)
        for i in range(x.shape[0]):
            assert kernel_matrix_baseline(x[i]).tobytes() == batched[i].tobytes()

    @pytest.mark.parametrize("n", [300, 2 * C + 1, 5003])
    def test_threads_and_batch_splits_do_not_move_a_bit(self, n):
        x = stacked(n, v=11, seed=3)
        reference = kernel_matrix_batched(x, threads=1)
        for threads in (2, 3):
            threaded = kernel_matrix_batched(x, threads=threads)
            assert threaded.tobytes() == reference.tobytes()
        for split in (1, 4, 7):
            parts = [
                kernel_matrix_batched(x[b : b + split])
                for b in range(0, x.shape[0], split)
            ]
            assert np.concatenate(parts).tobytes() == reference.tobytes()

    def test_partials_of_contiguous_tile_blocks_sum_to_the_row_kernel(self):
        """What the tiled runtime relies on: a chunk Gram-ed from a
        contiguous block holding only that chunk's columns is the chunk
        Gram-ed from the strided full-row view, so per-tile partials
        added in column order are the serial kernel."""
        n = 3 * C + 700
        x = stacked(n, v=4, m=8, seed=9)
        partials = []
        for c0, c1 in gram_chunks(n):
            block = np.ascontiguousarray(x[:, :, c0:c1])
            view = x[:, :, c0:c1]
            assert not view.flags.c_contiguous
            partial = kernel_matrix_batched(block)
            strided = np.matmul(view, view.transpose(0, 2, 1))
            assert partial.tobytes() == strided.tobytes()
            partials.append(partial)
        total = sum_gram_partials(partials)
        assert total.dtype == np.float32
        assert total.tobytes() == kernel_matrix_batched(x).tobytes()

    def test_float64_error_no_worse_than_the_single_call(self):
        x = stacked(34_470, v=8, m=12, seed=5)
        exact = np.matmul(x.astype(np.float64), x.astype(np.float64).transpose(0, 2, 1))
        single = np.abs(np.matmul(x, x.transpose(0, 2, 1)) - exact).max()
        chunked = np.abs(kernel_matrix_batched(x) - exact).max()
        assert chunked <= single
