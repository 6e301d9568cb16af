"""The Gram rule: one chunk-ordered definition of a dense linear kernel.

``repro.core.kernels.gram_chunks`` fixes how a voxel's ``A A^T`` is
rounded: the BLAS product of column chunk 0, plus the product of each
later chunk in ascending column order, in float32.  Everything that
builds a dense kernel — the serial score node and the tiled runtime's
workers, which each Gram only the chunks of their own column tile —
follows it, which is what makes "tiles == serial" a bitwise statement.
The optimized walk (``GramEmitter``) never builds the block at all: it
returns the rule's per-chunk products, and ``TestFusedWalk`` holds them
against the Gram of the block the materializing walk builds.

The oracle below is literally "matmul per chunk, add in order" over
chunk bounds written out by hand; it calls nothing from the module.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.correlation import normalize_epoch_data
from repro.core.engine import DenseEmitter, GramEmitter, run_engine
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


def _task(n: int, n_assigned: int, n_subjects: int, seed: int = 0):
    """z-scored epochs ``(E, n, T)`` and sorted assigned rows."""
    rng = np.random.default_rng(seed)
    z = normalize_epoch_data(
        rng.standard_normal((4 * n_subjects, n, 6)).astype(np.float32)
    )
    assigned = np.sort(rng.choice(n, min(n_assigned, n), replace=False))
    return z, assigned


class TestFusedWalk:
    """The walk that ends in a Gram returns the rule's chunk products of
    the block it never built, bit for bit."""

    @pytest.mark.parametrize("n_assigned", [1, 2, 7, 120])
    @pytest.mark.parametrize("n", [60, C, C + 1, C + 2, 2 * C + 1, 5003])
    def test_partials_equal_the_materialized_blocks_chunk_by_chunk(
        self, n, n_assigned
    ):
        for n_subjects in (1, 3):
            z, assigned = _task(n, n_assigned, n_subjects, seed=n + n_assigned)
            block, _ = run_engine(z, assigned, 4, DenseEmitter(), threads=1)
            chunks = gram_chunks(n)
            expected = [
                kernel_matrix_batched(block[:, :, c0:c1]) for c0, c1 in chunks
            ]
            kernels = kernel_matrix_batched(block)
            for threads in (1, 2, 3):
                partials = run_engine(z, assigned, 4, GramEmitter(), threads=threads)
                assert partials.dtype == np.float32
                assert len(partials) == len(chunks)
                for partial, product in zip(partials, expected):
                    assert np.array_equal(partial, product)
                assert np.array_equal(sum_gram_partials(partials), kernels)

    def test_a_worker_tile_is_the_serial_walk_over_its_chunks(self):
        """``tile_partial_grams`` over ``[c0, c1)`` returns exactly the
        serial walk's partials of those chunks (the real constant; the
        TCP run of ``tests/parallel/test_master_worker.py`` crosses a
        process boundary with it)."""
        from repro.core.normalization import NormalizationWorkspace
        from repro.parallel.tiled import tile_partial_grams

        z, assigned = _task(2 * C + 907, 7, 2, seed=4)
        serial = run_engine(z, assigned, 4, GramEmitter(), threads=1)
        workspace = NormalizationWorkspace()
        for (c0, c1), chunks in (
            ((0, C), slice(0, 1)),
            ((C, 2 * C + 907), slice(1, 3)),
            ((0, 2 * C + 907), slice(0, 3)),
        ):
            tile = tile_partial_grams(z, assigned, c0, c1, 4, workspace)
            assert np.array_equal(tile, serial[chunks])
        with pytest.raises(ValueError, match="not whole Gram chunks"):
            tile_partial_grams(z, assigned, 0, C + 5, 4, workspace)

    def test_a_worker_tile_under_a_shrunk_constant(self, small_gram_chunks):
        """The fixture the thread-transport protocol suite runs under:
        60 columns are four 16-column chunks (the last 12 wide)."""
        from repro.core.normalization import NormalizationWorkspace
        from repro.parallel.tiled import tile_partial_grams

        z, assigned = _task(60, 9, 2, seed=6)
        serial = run_engine(z, assigned, 4, GramEmitter(), threads=2)
        assert len(serial) == 4
        block, _ = run_engine(z, assigned, 4, DenseEmitter())
        assert np.array_equal(sum_gram_partials(serial), kernel_matrix_batched(block))
        workspace = NormalizationWorkspace()
        for c0, c1 in ((0, 32), (32, 60), (16, 48), (48, 60)):
            tile = tile_partial_grams(z, assigned, c0, c1, 4, workspace)
            assert np.array_equal(tile, serial[c0 // 16 : -(-c1 // 16)])


def _hostile_task(n: int, n_assigned: int, seed: int = 0):
    """``(24, n, 12)`` z-scored epochs whose voxel 0 is constant and
    voxel 1 NaN, and sorted assigned rows holding both (the constant
    one alone at one row; rows repeat when they outnumber the voxels)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((24, n, 12)).astype(np.float32)
    raw[:, 0] = 1.0
    raw[:, 1, 5] = np.nan
    z = normalize_epoch_data(raw)
    rest = rng.choice(np.arange(2, n), max(0, n_assigned - 2), replace=n_assigned > n)
    return z, np.sort(np.concatenate([[0, 1], rest]))[:n_assigned]


class TestSplitWalk:
    """A task of fewer chunks than threads is walked as ``(chunk, share)``
    items: each chunk's gemm in column shares, then its normalize and
    Gram in row slabs.  The partials keep every bit."""

    @pytest.mark.parametrize("per_subject", [2, 12])
    @pytest.mark.parametrize("n_assigned", [1, 2, 3, 36, 120])
    @pytest.mark.parametrize("n", [17, 1_200, C + 1, 2 * C + 1])
    def test_partials_equal_the_one_thread_walk_and_the_block(
        self, n, n_assigned, per_subject
    ):
        z, assigned = _hostile_task(n, n_assigned, seed=n + n_assigned)
        serial = run_engine(z, assigned, per_subject, GramEmitter(), threads=1)
        block, _ = run_engine(z, assigned, per_subject, DenseEmitter(), threads=1)
        expected = [
            kernel_matrix_batched(block[:, :, c0:c1]) for c0, c1 in gram_chunks(n)
        ]
        assert serial.tobytes() == np.stack(expected).tobytes()
        assert np.isnan(serial[:, assigned == 1]).all()
        for threads in (2, 3, 4):
            split = run_engine(z, assigned, per_subject, GramEmitter(), threads=threads)
            assert split.tobytes() == serial.tobytes(), threads

    def test_a_one_chunk_task_keeps_both_threads_busy(self, monkeypatch):
        """At two threads a one-chunk task does gemm work and emit work
        on both slots.  A thread's first stage-1 gemm, and its first
        ``emit``, waits at a two-party barrier, which passes only once
        the other slot arrives too: a walk that left one idle breaks it."""
        import threading

        from repro.core import engine

        z, assigned = _hostile_task(1_200, 36, seed=1)
        serial = run_engine(z, assigned, 12, GramEmitter(), threads=1)
        panel = (z.shape[0], assigned.size, z.shape[2])
        barriers = {
            phase: threading.Barrier(2, timeout=20) for phase in ("gemm", "emit")
        }
        seen: dict[str, set[int]] = {phase: set() for phase in barriers}

        def meet(phase: str) -> None:
            if threading.get_ident() not in seen[phase]:
                seen[phase].add(threading.get_ident())
                barriers[phase].wait()

        matmul, emit = np.matmul, GramEmitter.emit

        def gemm_spy(a, b, out=None):
            if a.shape == panel:
                meet("gemm")
            return matmul(a, b, out=out)

        def emit_spy(self, tile, *bounds):
            meet("emit")
            return emit(self, tile, *bounds)

        monkeypatch.setattr(engine.np, "matmul", gemm_spy)
        monkeypatch.setattr(GramEmitter, "emit", emit_spy)
        partials = run_engine(z, assigned, 12, GramEmitter(), threads=2)
        assert len(seen["gemm"]) == len(seen["emit"]) == 2
        assert partials.tobytes() == serial.tobytes()
