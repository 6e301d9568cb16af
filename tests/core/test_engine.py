"""Engine/emitter conformance: the protocol contract.

Every emitter must observe the same call sequence from
:func:`repro.core.engine.run_engine` — ``plan -> begin -> emit* /
end_sweep* -> finalize`` — and the built-in emitters must reproduce
their pre-refactor entry points bitwise (pinned in
``test_stage12_equivalence.py`` / ``test_sparse_equivalence.py``; this
module pins the *protocol*).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import engine as engine_mod
from repro.core.correlation import correlate_batched, normalize_epoch_data
from repro.core.engine import (
    DenseEmitter,
    EngineShape,
    GramEmitter,
    TileEmitter,
    TilePlan,
    gemm_block_cols,
    gemm_normalize_tile,
    gemm_safe_block,
    run_engine,
)
from repro.core.kernels import kernel_matrix_batched
from repro.core.normalization import NormalizationWorkspace, normalize_separated
from repro.core.sparse import CSREmitter
from repro.core.tiling import block_bounds


def _problem(n_epochs=6, n_voxels=23, epoch_len=7, n_assigned=9, seed=3):
    rng = np.random.default_rng(seed)
    z = normalize_epoch_data(
        rng.standard_normal((n_epochs, n_voxels, epoch_len)).astype(np.float32)
    )
    assigned = rng.choice(n_voxels, size=n_assigned, replace=False)
    assigned.sort()
    return z, assigned


class BlockedDense(DenseEmitter):
    """A dense emitter whose column block the test chooses (made
    gemm-safe like the real plan), instead of deriving it from bytes."""

    def __init__(self, cols: int, **kwargs):
        super().__init__(**kwargs)
        self._cols = cols

    def plan(self, shape: EngineShape) -> TilePlan:
        return TilePlan(
            target_block=gemm_safe_block(
                self._cols, shape.n_assigned, shape.n_voxels
            )
        )


def raw_blocks(z: np.ndarray, assigned: np.ndarray, cols: int) -> np.ndarray:
    """Raw stage-1 correlations ``(V, E, N)``, walked in column blocks
    of ``cols`` (made gemm-safe like the real plan), each block through
    the call ``run_engine``'s gemm shares make: the column-block
    contract every emitter's tiles rest on."""
    n_epochs, n_voxels, _ = z.shape
    panel = z[:, assigned]  # (E, V, T) contiguous copy, as the engine's
    zt = z.swapaxes(1, 2)
    width = gemm_safe_block(cols, assigned.size, n_voxels)
    out = np.empty((assigned.size, n_epochs, n_voxels), dtype=np.float32)
    for n0, n1 in block_bounds(n_voxels, width):
        tile = np.empty((assigned.size, n_epochs, n1 - n0), dtype=np.float32)
        gemm_normalize_tile(panel, zt[:, :, n0:n1], tile, None, gemm_cols=width)
        out[:, :, n0:n1] = tile
    return out


class RecordingEmitter:
    """Protocol probe: records the engine's call sequence."""

    def __init__(self, target_block: int | None = None):
        self._target_block = target_block
        self.calls: list[tuple] = []

    def plan(self, shape: EngineShape) -> TilePlan:
        self.calls.append(("plan", shape))
        return TilePlan(target_block=self._target_block)

    def begin(self, shape: EngineShape, plan: TilePlan) -> None:
        self.calls.append(("begin", shape, plan))

    def emit(self, tile, v0, v1, n0, n1):
        self.calls.append(("emit", v0, v1, n0, n1, tile.shape))
        return n0  # the fragment: end_sweep must see these in column order

    def end_sweep(self, v0, v1, fragments) -> None:
        self.calls.append(("end_sweep", v0, v1, list(fragments)))

    def finalize(self):
        self.calls.append(("finalize",))
        return self.calls


class TestProtocolSequence:
    def test_runtime_checkable(self):
        assert isinstance(DenseEmitter(), TileEmitter)
        assert isinstance(GramEmitter(), TileEmitter)
        assert isinstance(CSREmitter(top_k=3), TileEmitter)
        assert isinstance(RecordingEmitter(), TileEmitter)

    def test_full_width_sequence(self):
        z, assigned = _problem()
        probe = RecordingEmitter()
        calls = run_engine(z, assigned, 3, probe)
        names = [c[0] for c in calls]
        # plan -> begin -> (emit, end_sweep)* -> finalize
        assert names[:2] == ["plan", "begin"]
        assert names[-1] == "finalize"
        body = names[2:-1]
        assert body == ["emit", "end_sweep"] * (len(body) // 2)
        # Full-width emits span the whole target axis.
        for call in calls:
            if call[0] == "emit":
                _, v0, v1, n0, n1, tile_shape = call
                assert (n0, n1) == (0, z.shape[1])
                assert tile_shape == (v1 - v0, z.shape[0], z.shape[1])

    def test_tiled_sequence_covers_geometry(self):
        z, assigned = _problem()
        probe = RecordingEmitter(target_block=8)
        calls = run_engine(z, assigned, 3, probe)
        emitted = np.zeros((assigned.size, z.shape[1]), dtype=int)
        for call in calls:
            if call[0] == "emit":
                _, v0, v1, n0, n1, _ = call
                emitted[v0:v1, n0:n1] += 1
        # Every (assigned voxel, target) cell emitted exactly once.
        assert (emitted == 1).all()
        sweeps = [c for c in calls if c[0] == "end_sweep"]
        assert sweeps[-1][2] == assigned.size
        # Whatever thread emitted them, fragments reach end_sweep in
        # ascending column order.
        assert sweeps[0][3] == list(range(0, z.shape[1], 8))

    def test_begin_sees_resolved_plan(self):
        z, assigned = _problem()
        probe = RecordingEmitter()
        calls = run_engine(z, assigned, 3, probe)
        (_, shape, plan) = next(c for c in calls if c[0] == "begin")
        assert shape.n_assigned == assigned.size
        assert shape.n_voxels == z.shape[1]
        assert shape.epochs_per_subject == 3
        assert plan == plan.resolve(shape)  # already clamped

    def test_epoch_divisibility_validated(self):
        z, assigned = _problem(n_epochs=6)
        with pytest.raises(ValueError, match="divisible"):
            run_engine(z, assigned, 4, RecordingEmitter())


class TestBuiltinEmitterReturns:
    """finalize() is the engine's return value, per emitter."""

    def test_dense(self):
        z, assigned = _problem()
        out, n_tiles = run_engine(z, assigned, 3, DenseEmitter())
        assert out.shape == (assigned.size, z.shape[0], z.shape[1])
        assert out.dtype == np.float32
        assert n_tiles == 1  # 23 voxels fit one megabyte tile

    def test_csr(self):
        z, assigned = _problem()
        result, stats = run_engine(z, assigned, 3, CSREmitter(top_k=4))
        assert result.nnz == assigned.size * z.shape[0] * 4
        assert stats.n_tiles >= 1

    def test_dense_out_validation(self):
        z, assigned = _problem()
        bad = np.empty((assigned.size, z.shape[0], z.shape[1] + 1), np.float32)
        with pytest.raises(ValueError):
            run_engine(z, assigned, 3, DenseEmitter(out=bad))


class TestPlanResolution:
    def test_validation(self):
        with pytest.raises(ValueError):
            TilePlan(voxel_sweep=0)
        with pytest.raises(ValueError):
            TilePlan(target_block=0)

    def test_full_width_clamps_sweep(self):
        shape = EngineShape(
            n_assigned=5, n_epochs=4, n_voxels=30,
            epoch_length=7, epochs_per_subject=2,
        )
        plan = TilePlan(voxel_sweep=100).resolve(shape)
        assert plan.voxel_sweep == 5
        assert plan.target_block == 30  # defaults to the whole brain

    def test_tiled_defaults_and_clamps(self):
        shape = EngineShape(
            n_assigned=5, n_epochs=4, n_voxels=30,
            epoch_length=7, epochs_per_subject=2,
        )
        plan = TilePlan(target_block=64).resolve(shape)
        assert plan.voxel_sweep == 5   # defaults to whole task
        assert plan.target_block == 30  # clamped to brain


class TestDensePlan:
    """The dense walk's geometry, pinned to literal values."""

    @staticmethod
    def _shape(n_assigned, n_epochs, n_voxels):
        return EngineShape(n_assigned, n_epochs, n_voxels, 12, n_epochs)

    def test_tile_is_bytes_per_planned_row_over_all_rows(self):
        wide = self._shape(120, 12, 34470)  # the online-wide task
        # 8 rows x 128 KiB over 120 x 12 float32 columns = 182 -> 176.
        assert DenseEmitter().plan(wide).target_block == 176
        assert DenseEmitter(voxel_sweep=8).plan(wide).target_block == 176
        assert DenseEmitter(voxel_sweep=16).plan(wide).target_block == 352
        # Never below one cache line of float32.
        assert DenseEmitter(voxel_sweep=1).plan(wide).target_block == 16

    @pytest.mark.parametrize("preset", ["FACE_SCENE", "ATTENTION", "SPARSE_100K"])
    @pytest.mark.parametrize("n_assigned", [1, 3, 7, 8, 9, 120])
    def test_default_tile_is_the_xeon_planners_voxel_block(self, preset, n_assigned):
        """The walk did not move when the run path stopped consulting
        the E5-2670 cache model: the no-argument emitter's rule,
        ``min(8, n_assigned)`` rows, is the voxel block that model gave
        every run."""
        from repro.core.blocking import plan_blocks
        from repro.data import presets
        from repro.hw import E5_2670

        spec = getattr(presets, preset)
        shape = EngineShape(
            n_assigned, spec.n_epochs, spec.n_voxels,
            spec.epoch_length, spec.epochs_per_subject,
        )
        modelled = plan_blocks(
            E5_2670,
            epochs_per_subject=spec.epochs_per_subject,
            epoch_length=spec.epoch_length,
            n_assigned=n_assigned,
            n_voxels=spec.n_voxels,
        ).voxel_block
        assert modelled == min(8, n_assigned)
        assert DenseEmitter().plan(shape) == DenseEmitter(
            voxel_sweep=modelled
        ).plan(shape)

    def test_n_tiles_counts_column_tiles_exactly(self, monkeypatch):
        # 4 rows x 1 KiB over 9 x 6 float32 columns = 18 -> 16 columns.
        monkeypatch.setattr(engine_mod, "DENSE_TILE_BYTES_PER_ROW", 1024)
        z, assigned = _problem(n_voxels=70)
        for threads in BUDGETS:
            emitter = DenseEmitter(voxel_sweep=4)
            _, n_tiles = run_engine(z, assigned, 3, emitter, threads=threads)
            assert (emitter.tile_cols, n_tiles) == (16, 5)  # ceil(70 / 16)

    def test_gemm_safe_block_keeps_gemv_shapes_out(self):
        assert gemm_safe_block(1, 5, 30) == 2  # no 1-column tile
        assert gemm_safe_block(8, 5, 30) == 8
        assert gemm_safe_block(8, 5, 33) == 9  # no 1-column tail
        assert gemm_safe_block(99, 5, 30) == 30
        assert gemm_safe_block(8, 1, 30) == 30  # 1 row: one tile


class TestGramPlan:
    """The plan of the walk that ends in a Gram (its bits are pinned in
    ``test_gram_rule.py``, what it never holds just below)."""

    def test_the_gemm_width_rule(self):
        """The widest whole cache lines with ``rows * cols * T`` at most
        OpenBLAS's threading threshold: the same 176 columns as the old
        1 MiB / E rule at 120 rows x ``T = 12`` whatever ``E``, 592 for
        the 36-row offline task; a one-row task is one full-width
        product."""
        assert engine_mod.BLAS_THREADING_MNK == 2**18
        assert gemm_block_cols(120, 12, 34_470) == 176
        assert gemm_block_cols(36, 12, 1_200) == 592
        assert gemm_block_cols(36, 12, 300) == 300
        assert gemm_block_cols(1, 12, 34_470) == 34_470

    @pytest.mark.parametrize("preset", ["FACE_SCENE", "ATTENTION", "WIDE", "OFFLINE"])
    @pytest.mark.parametrize("n_assigned", [1, 16, 36, 120])
    def test_no_gemm_reaches_the_blas_threading_threshold(
        self, monkeypatch, preset, n_assigned
    ):
        """OpenBLAS threads a gemm above ``m*n*k = 2**18``; two engine
        threads over a threading BLAS oversubscribe the cores, so every
        stage-1 gemm the walk issues, at any thread count, staying at or
        below that is a property, not a tuned accident.  ``FACE_SCENE``
        at 120 rows is the paper's task; ``OFFLINE`` (36 rows, one
        1,200-column chunk, 72 epochs) is the offline-facescene task,
        dealt in column shares from two threads on.  A one-row task is
        the exception by design: one full-width product.  The spy
        computes nothing (nor does the normalizer), so the walk at
        Table 2's geometry costs only the scratch's untouched pages."""
        from repro.data import presets

        per_subject = epoch_length = 12
        if preset == "WIDE":  # the online-wide benchmark task
            n_epochs, n_voxels = 12, 34_470
        elif preset == "OFFLINE":
            n_epochs, n_voxels = 72, 1_200
        else:
            spec = getattr(presets, preset)
            n_epochs, n_voxels = spec.n_epochs, spec.n_voxels
            epoch_length, per_subject = spec.epoch_length, spec.epochs_per_subject
        z = np.broadcast_to(np.float32(0), (n_epochs, n_voxels, epoch_length))
        assigned = np.arange(n_assigned)
        gemms: list[int] = []

        def spy(a, b, out=None):
            if a.shape == (n_epochs, n_assigned, epoch_length):  # stage 1
                gemms.append(b.shape[-1])
            return out

        monkeypatch.setattr(engine_mod.np, "matmul", spy)
        monkeypatch.setattr(
            engine_mod, "fuse_normalize_tile", lambda tile, *a, **k: tile
        )
        for threads in (1, 2, 3):
            gemms.clear()
            run_engine(z, assigned, per_subject, GramEmitter(), threads=threads)
            if n_assigned == 1:
                assert gemms == [n_voxels]
                continue
            assert sum(gemms) == n_voxels  # every column, once
            assert n_assigned * max(gemms) * epoch_length <= 2**18, threads
            assert min(gemms) > 1  # no one-column gemm either

    def test_the_walk_issues_its_gemms_at_the_plans_width(self, monkeypatch):
        """...and the engine really cuts each chunk's gemm there: 70
        columns as 32 + 32 + 6-column chunks, each gemm-ed in 16-column
        blocks (a threshold of 9 rows x 7 x 16 columns)."""
        from repro.core import kernels

        monkeypatch.setattr(kernels, "GRAM_CHUNK_COLS", 32)
        monkeypatch.setattr(engine_mod, "BLAS_THREADING_MNK", 9 * 7 * 16)
        z, assigned = _problem(n_voxels=70)
        gemms, real = [], np.matmul

        def spy(a, b, out=None):
            if a.shape == (6, 9, 7):  # (E, V, T): a stage-1 gemm
                gemms.append(b.shape[-1])
            return real(a, b, out=out)

        monkeypatch.setattr(engine_mod.np, "matmul", spy)
        partials = run_engine(z, assigned, 3, GramEmitter(), threads=1)
        assert gemms == [16, 16, 16, 16, 6]
        block, _ = run_engine(z, assigned, 3, DenseEmitter())
        assert np.array_equal(
            kernels.sum_gram_partials(partials), kernel_matrix_batched(block)
        )

    def test_a_tile_restricts_the_walk_to_its_chunks(self):
        shape = EngineShape(7, 12, 34_470, 12, 12)
        emitter = GramEmitter(2 * 2048, 4 * 2048)
        assert emitter.plan(shape).columns == ((4096, 6144), (6144, 8192))
        with pytest.raises(ValueError, match="not whole Gram chunks"):
            GramEmitter(100, 4096).plan(shape)


def test_no_block_is_held():
    """Peak traced memory stays under a quarter of the ``(V, E, N)``
    block: each chunk is reduced to its partial Gram where it was
    computed, in scratch the workspace holds — a second task on the
    same workspace allocates nothing."""
    n_assigned, n_epochs, n_voxels = 16, 12, 200_000
    rng = np.random.default_rng(5)
    z = normalize_epoch_data(
        rng.standard_normal((n_epochs, n_voxels, 2)).astype(np.float32)
    )
    assigned = np.arange(n_assigned)
    workspace = NormalizationWorkspace()
    tracemalloc.start()
    try:
        partials = run_engine(
            z, assigned, n_epochs, GramEmitter(), workspace=workspace, threads=1
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = n_assigned * n_epochs * n_voxels * 4
    assert partials.shape == (98, n_assigned, n_epochs, n_epochs)
    assert peak < block // 4, f"peak {peak / 1e6:.1f} MB, block {block / 1e6:.1f} MB"
    held = workspace.allocations
    assert held == 2  # tile, normalizer; the tail chunk is a view of both
    run_engine(
        z, assigned + 16, n_epochs, GramEmitter(), workspace=workspace, threads=1
    )
    assert workspace.allocations == held

def test_the_optimized_graph_holds_no_block_either():
    """The same bound through ``execute_task``: the stage graph
    cannot quietly re-materialize what the walk never built."""
    from repro.core import FCMAConfig
    from repro.core.pipeline import preprocess_dataset
    from repro.data import SyntheticConfig, generate_dataset
    from repro.exec import RunContext, execute_task

    n_assigned, n_voxels = 16, 200_000
    dataset = generate_dataset(SyntheticConfig(
        n_voxels=n_voxels, n_subjects=1, epochs_per_subject=12,
        epoch_length=4, n_informative=8, seed=1,
    ))
    preprocess_dataset(dataset)  # cached: the task below allocates no z
    ctx = RunContext(FCMAConfig(variant="optimized"))
    tracemalloc.start()
    try:
        scores = execute_task(dataset, np.arange(n_assigned), ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = n_assigned * dataset.n_epochs * n_voxels * 4
    assert scores.voxels.size == n_assigned
    assert peak < block // 4, f"peak {peak / 1e6:.1f} MB, block {block / 1e6:.1f} MB"


# -- thread budget and tile-width invariance -----------------------------

BUDGETS = (1, 2, 3)


@st.composite
def _walk_problem(draw):
    """A small task plus a column block that usually leaves a ragged tail."""
    eps = draw(st.integers(1, 4))
    n_epochs = eps * draw(st.integers(1, 3))
    n_voxels = draw(st.integers(2, 40))
    n_assigned = draw(st.integers(1, min(n_voxels, 12)))
    epoch_len = draw(st.integers(2, 9))
    target_block = draw(st.integers(1, n_voxels + 3))
    seed = draw(st.integers(0, 2**16 - 1))
    z, assigned = _problem(n_epochs, n_voxels, epoch_len, n_assigned, seed)
    return z, assigned, eps, target_block


def _csr_bytes(result):
    return result.indptr.tobytes(), result.indices.tobytes(), result.data.tobytes()


class TestThreadAndTileInvariance:
    """Results do not depend on the thread budget, and the dense result
    not on the column block either (columns split, rows never)."""

    @settings(max_examples=30, deadline=None)
    @given(_walk_problem())
    def test_dense_bitwise_for_any_budget_and_block(self, problem):
        z, assigned, eps, target_block = problem
        reference = normalize_separated(correlate_batched(z, assigned), eps)
        for threads in BUDGETS:
            emitter = BlockedDense(target_block)
            out, n_tiles = run_engine(z, assigned, eps, emitter, threads=threads)
            assert out.tobytes() == reference.tobytes()
            # Every column tile counted once, whichever thread took it.
            assert n_tiles == emitter.n_tiles == -(-z.shape[1] // emitter.tile_cols)

    @settings(max_examples=30, deadline=None)
    @given(_walk_problem(), st.integers(1, 5), st.booleans())
    def test_csr_bitwise_for_any_budget(self, problem, sweep, use_top_k):
        z, assigned, eps, target_block = problem
        mode = {"top_k": 3} if use_top_k else {"threshold": 0.8}
        runs = [
            run_engine(
                z, assigned, eps,
                CSREmitter(voxel_sweep=sweep, target_block=target_block, **mode),
                threads=threads,
            )
            for threads in BUDGETS
        ]
        for result, stats in runs[1:]:
            assert _csr_bytes(result) == _csr_bytes(runs[0][0])
            assert stats == runs[0][1]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 6), st.integers(1, 50), st.integers(0, 99))
    def test_gram_bitwise_for_any_budget(self, v, m, n, seed):
        data = np.random.default_rng(seed).standard_normal((v, m, n)).astype(np.float32)
        reference = data @ data.transpose(0, 2, 1)
        for threads in BUDGETS:
            got = kernel_matrix_batched(data, threads=threads)
            assert got.tobytes() == reference.tobytes()

    def test_stress_more_threads_than_cores(self):
        """Eight threads on two-column tiles with a microsecond switch
        interval: tiles land in disjoint slices of the shared output and
        the shared top-k slab, and the one-chunk Gram walk's column
        shares and row slabs in disjoint parts of its one tile and of
        the partials, so a lost or misplaced write would change the
        bytes."""
        z, assigned = _problem(n_epochs=6, n_voxels=62, n_assigned=12)

        def run(threads):
            dense, n_tiles = run_engine(
                z, assigned, 3, BlockedDense(2), threads=threads
            )
            assert n_tiles == 31  # 62 / 2, no double count
            csr, _ = run_engine(
                z, assigned, 3,
                CSREmitter(top_k=5, voxel_sweep=5, target_block=2),
                threads=threads,
            )
            gram = run_engine(z, assigned, 3, GramEmitter(), threads=threads)
            return dense.tobytes(), _csr_bytes(csr), gram.tobytes()

        reference = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert run(8) == reference
        finally:
            sys.setswitchinterval(interval)

    def test_scratch_allocated_once_across_tasks(self):
        """Steady tile + ragged tail: every task after the first reuses
        the workspace's scratch (no per-task RSS creep), and a thread
        holds one tile + normalizer set, the tail a view of it."""
        z, assigned = _problem(n_voxels=23)
        workspace = NormalizationWorkspace()
        counts = []
        for _ in range(3):
            run_engine(
                z, assigned, 3, BlockedDense(5), workspace=workspace, threads=1
            )
            counts.append(workspace.allocations)
        assert counts == [2, 2, 2]  # tile, normalizer
        for _ in range(3):
            run_engine(
                z, assigned, 3, BlockedDense(5), workspace=workspace, threads=2
            )
        assert workspace.allocations == 2
        assert workspace.slot(1).allocations == 2

    def test_pool_threads_allocate_no_scratch(self, monkeypatch):
        """Every slot's scratch is sized on the calling thread: what a
        short-lived pool thread allocates lands in a malloc arena of its
        own, whose resident size then depends on which thread took the
        ragged tail."""
        allocating = []
        views = NormalizationWorkspace._views

        def recording(self, kind, *shapes):
            before = self.allocations
            out = views(self, kind, *shapes)
            if self.allocations != before:
                allocating.append(threading.get_ident())
            return out

        monkeypatch.setattr(NormalizationWorkspace, "_views", recording)
        z, assigned = _problem(n_voxels=23)
        for emitter in (BlockedDense(5), GramEmitter()):
            run_engine(z, assigned, 3, emitter, threads=2)
        assert allocating and set(allocating) == {threading.get_ident()}

    def test_pool_threads_allocate_no_top_k_scratch(self, monkeypatch):
        """The CSR emitter's top-k select pairs, one per engine thread
        that can hold a tile, are made by ``begin`` on the calling
        thread; pool threads only pop them."""
        import repro.core.sparse as sparse_mod

        allocating = []
        new_scratch = CSREmitter._new_scratch

        def recording(self):
            allocating.append(threading.get_ident())
            return new_scratch(self)

        monkeypatch.setattr(CSREmitter, "_new_scratch", recording)
        monkeypatch.setattr(sparse_mod, "thread_budget", lambda: 2)
        z, assigned = _problem(n_voxels=23)
        emitter = CSREmitter(top_k=3, voxel_sweep=4, target_block=8)
        run_engine(z, assigned, 3, emitter, threads=2)
        assert emitter.n_tiles > 2  # both threads took tiles
        assert allocating == [threading.get_ident()] * 2


class TestThreadBudget:
    def test_budget_is_affinity_over_host_workers(self, monkeypatch):
        monkeypatch.setattr(
            engine_mod.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
        )
        assert engine_mod.thread_budget() == 8
        previous = engine_mod.set_host_workers(3)
        try:
            assert previous == 1
            assert engine_mod.thread_budget() == 2
            engine_mod.set_host_workers(16)
            assert engine_mod.thread_budget() == 1  # never below one
        finally:
            engine_mod.set_host_workers(previous)
        with pytest.raises(ValueError):
            engine_mod.set_host_workers(0)

    def test_deal_is_ordered_and_scoped_to_the_call(self):
        before = threading.active_count()
        slots = set()

        def work(slot, i):
            slots.add(slot)
            return i * i

        assert engine_mod.deal(7, 3, work) == [0, 1, 4, 9, 16, 25, 36]
        assert slots <= {0, 1, 2}
        assert threading.active_count() == before  # no pool outlives it
        # One slot (or one item) is the plain loop on the calling thread.
        me = threading.current_thread()
        who = engine_mod.deal(2, 1, lambda slot, i: threading.current_thread())
        assert who == [me, me]
        assert engine_mod.deal(0, 4, work) == []

    def test_deal_propagates_worker_errors(self):
        def work(slot, i):
            if i == 5:
                raise RuntimeError("tile 5")
            return i

        with pytest.raises(RuntimeError, match="tile 5"):
            engine_mod.deal(8, 3, work)


#: Tiles on both sides of OpenBLAS's own threading threshold (m*n*k of
#: 2**18), so the child's BLAS really splits some of the gemms.
MULTITHREADED_BLAS_SCENARIO = """
import numpy as np
from repro.core.correlation import correlate_batched, normalize_epoch_data
from repro.core.engine import DenseEmitter, GramEmitter, run_engine
from repro.core.kernels import kernel_matrix_batched, sum_gram_partials
from repro.core.normalization import NormalizationWorkspace, normalize_separated
from repro.core.sparse import CSREmitter
from repro.parallel.tiled import tile_partial_grams

rng = np.random.default_rng(0)
for e, n, t, v in ((4, 2500, 12, 24), (6, 5003, 16, 64)):
    z = normalize_epoch_data(rng.standard_normal((e, n, t)).astype(np.float32))
    assigned = np.sort(rng.choice(n, v, replace=False))
    reference = normalize_separated(correlate_batched(z, assigned), e)
    widths = set()
    for block in (1, 8, 64):
        for threads in (1, 2, 3):
            emitter = DenseEmitter(voxel_sweep=block)
            out, _ = run_engine(z, assigned, e, emitter, threads=threads)
            assert out.tobytes() == reference.tobytes(), (n, block, threads)
            widths.add(v * t * emitter.tile_cols > 2**18)
    assert widths == {False, True}
    # The Gram rule, by hand: matmul per 2048-column chunk, added in order.
    partials = []
    for c0 in range(0, n, 2048):
        chunk = reference[:, :, c0:c0 + 2048]
        partials.append(chunk @ chunk.transpose(0, 2, 1))
    gram = partials[0].copy()
    for partial in partials[1:]:
        gram += partial
    # A tile's partials (Gram of a contiguous block of just those
    # columns, what a tiled worker holds) are the serial partials.
    tile_partials = tile_partial_grams(
        z, assigned, 2048, n, e, NormalizationWorkspace()
    )
    assert tile_partials.tobytes() == np.stack(partials[1:]).tobytes(), n
    csr = []
    for threads in (1, 2, 3):
        assert kernel_matrix_batched(reference, threads=threads).tobytes() == gram.tobytes()
        # Fused kernels == materialized kernels: the walk that ends in a
        # Gram returns the partials of the block it never built.
        fused = run_engine(z, assigned, e, GramEmitter(), threads=threads)
        assert fused.tobytes() == np.stack(partials).tobytes(), (n, threads)
        assert sum_gram_partials(fused).tobytes() == gram.tobytes()
        result, _ = run_engine(
            z, assigned, e,
            CSREmitter(top_k=5, voxel_sweep=16, target_block=1024), threads=threads,
        )
        csr.append((result.indices.tobytes(), result.data.tobytes()))
    assert csr[0] == csr[1] == csr[2]
# A one-chunk task at 2 and 3 threads: its gemm dealt in column shares,
# its normalize + Gram in row slabs.
z = normalize_epoch_data(rng.standard_normal((24, 1200, 12)).astype(np.float32))
assigned = np.sort(rng.choice(1200, 36, replace=False))
block = normalize_separated(correlate_batched(z, assigned), 12)
serial = run_engine(z, assigned, 12, GramEmitter(), threads=1)
assert serial.tobytes() == kernel_matrix_batched(block)[None].tobytes()
for threads in (2, 3):
    split = run_engine(z, assigned, 12, GramEmitter(), threads=threads)
    assert split.tobytes() == serial.tobytes(), threads
print("ok")
"""


@pytest.mark.parametrize("blas_threads", ["2", "4"])
def test_invariance_holds_under_multithreaded_blas(blas_threads):
    """A multi-threaded BLAS splits M and N differently per gemm shape;
    the column-split and thread-budget invariance — the Gram rule's
    "a tile's partials are the serial partials" and the one-chunk
    task's column shares and row slabs — must survive that
    (the default ``fcma run`` configuration, which the benchmark
    harness — BLAS pinned to one thread — never sees)."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    env.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"), blas_threads
    ))
    done = subprocess.run(
        [sys.executable, "-c", MULTITHREADED_BLAS_SCENARIO],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
