"""What is specific to 2-D tiles: the tile body, the overlap accounting
of tile/score items, and the dense-engine-only rule.  The protocol
itself is covered over both decompositions in ``test_master_worker.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.core.correlation import normalize_epoch_data
from repro.core.engine import DenseEmitter, run_engine
from repro.core.pipeline import preprocess_dataset
from repro.exec import RunContext, make_executor
from repro.exec.partition import partition_tiles
from repro.parallel.comm import Comm, run_ranks
from repro.parallel.tiled import (
    WorkPlan,
    compute_tile,
    master_loop,
    worker_loop,
)

TIMEOUT = 30.0


@pytest.fixture()
def config() -> FCMAConfig:
    return FCMAConfig(task_voxels=40, target_block=32)


@pytest.fixture()
def serial_scores(tiny_dataset, config):
    return make_executor("serial").run(tiny_dataset, RunContext(config))


def _run_tiled_threads(dataset, config, n_workers, tile_cols=32):
    """The tiled protocol over the in-process thread transport."""
    tiles = partition_tiles(dataset.n_voxels, config.task_voxels, tile_cols)
    plan = WorkPlan(tiles=tiles)
    worker_ctxs = [RunContext(config) for _ in range(n_workers)]

    def spmd(comm: Comm):
        if comm.rank == 0:
            return master_loop(comm, plan)
        return worker_loop(comm, dataset, worker_ctxs[comm.rank - 1])

    results = run_ranks(n_workers + 1, spmd, timeout=TIMEOUT)
    return results[0], results[1:], worker_ctxs


class TestComputeTile:
    def test_column_tiling_is_bitwise_invariant(self, tiny_dataset):
        grouped, z = preprocess_dataset(tiny_dataset)
        eps = grouped.epochs.epochs_per_subject()
        rows = np.arange(10, dtype=np.int64)
        full = compute_tile(z, rows, 0, z.shape[1], eps)
        left = compute_tile(z, rows, 0, 17, eps)
        right = compute_tile(z, rows, 17, z.shape[1], eps)
        np.testing.assert_array_equal(full[:, :, :17], left)
        np.testing.assert_array_equal(full[:, :, 17:], right)

    @pytest.mark.parametrize("n_rows", [40, 1])
    def test_partitioned_tiles_equal_serial_engine_on_degenerate_shapes(
        self, n_rows
    ):
        """``n_voxels = 4 * cols + 1`` and a single-voxel panel: a naive
        split makes a width-1 tail tile / one-row tiles, which BLAS
        computes off the gemm path with different rounding."""
        rng = np.random.default_rng(5)
        z = normalize_epoch_data(
            rng.standard_normal((6, 201, 9)).astype(np.float32)
        )
        voxels = np.arange(n_rows, dtype=np.int64)
        serial, _ = run_engine(z, voxels, 3, DenseEmitter())
        tiles = partition_tiles(201, 40, 50, voxels)
        assert min(t.n_cols for t in tiles) > 1
        assert len(tiles) == (4 if n_rows > 1 else 1)
        for t in tiles:
            block = compute_tile(z, t.rows, t.col_start, t.col_stop, 3)
            np.testing.assert_array_equal(
                block, serial[:, :, t.col_start : t.col_stop]
            )

    def test_panel_cache_matches_fresh_slice(self, tiny_dataset):
        _, z = preprocess_dataset(tiny_dataset)
        rows = np.arange(5, 25, dtype=np.int64)
        fresh = compute_tile(z, rows, 0, 30, 8)
        cached = compute_tile(z, rows, 0, 30, 8, panel=z[:, rows])
        np.testing.assert_array_equal(fresh, cached)


@pytest.mark.usefixtures("small_gram_chunks")  # a 32-column tile is 2 chunks
class TestTiledProtocol:
    def test_single_worker_completes_all_items(self, tiny_dataset, config):
        scores, completed, _ = _run_tiled_threads(
            tiny_dataset, config, n_workers=1
        )
        # 2 panels x 2 column tiles + 2 score tasks, all on one worker.
        assert completed[0] == 6
        assert len(scores) == tiny_dataset.n_voxels

    # Overlap accounting belongs to tile/score items, so only a worker
    # that was handed at least one has any (a late starter may get none).

    def test_overlap_counter_recorded(self, tiny_dataset, config):
        _, completed, worker_ctxs = _run_tiled_threads(
            tiny_dataset, config, n_workers=2
        )
        counters = [
            ctx.counters().get("overlap_hidden_seconds")
            for ctx, done in zip(worker_ctxs, completed)
            if done
        ]
        assert counters
        assert all(value is not None and value >= 0.0 for value in counters)

    def test_fetch_wait_stage_recorded(self, tiny_dataset, config):
        _, completed, worker_ctxs = _run_tiled_threads(
            tiny_dataset, config, n_workers=2
        )
        busy = [ctx for ctx, done in zip(worker_ctxs, completed) if done]
        assert busy and all("comm.fetch_wait" in ctx.stages for ctx in busy)


class TestATileIsTheWalk:
    """Task = walk ∘ score: a tile is the serial node's walk on a column
    range and a score item its score, so the two runs' traces differ in
    how the area was cut, not in what ran."""

    def test_tiles_and_serial_walk_the_same_area_under_one_name(
        self, tiny_dataset, config, small_gram_chunks
    ):
        serial_ctx = RunContext(config)
        make_executor("serial").run(tiny_dataset, serial_ctx)
        _, _, worker_ctxs = _run_tiled_threads(tiny_dataset, config, n_workers=2)

        def kernel_spans(ctxs):
            return [
                s for ctx in ctxs for s in ctx.tracer.spans() if s.kind == "kernel"
            ]

        def walks(spans):
            return [s for s in spans if "cols" in s.metrics]

        serial, tiled = kernel_spans([serial_ctx]), kernel_spans(worker_ctxs)
        assert {s.name for s in walks(serial)} == {"correlate_normalize_batched"}
        assert {s.name for s in walks(tiled)} == {"correlate_normalize_batched"}
        # 2 panels at full width vs 2 panels x 2 column tiles...
        assert len(walks(serial)) == 2 and len(walks(tiled)) == 4
        assert any(s.metrics["cols"] < tiny_dataset.n_voxels for s in walks(tiled))

        def area(spans):
            return sum(s.metrics["rows"] * s.metrics["cols"] for s in walks(spans))

        # ... of the same (assigned x all-voxels) matrix, in the same chunks.
        assert area(serial) == area(tiled) == tiny_dataset.n_voxels**2
        for metric in ("gram_chunks", "tiles", "bytes_moved"):
            assert sum(s.metrics[metric] for s in walks(serial)) == sum(
                s.metrics[metric] for s in walks(tiled)
            )
        # Stage 3 is one span name too, over the same voxels.
        for spans in (serial, tiled):
            scored = [s for s in spans if s.name == "score_voxels"]
            assert sum(s.metrics["voxels"] for s in scored) == tiny_dataset.n_voxels
        retired = {"correlate_normalize_tile2d", "score_panel", "score_voxels_sparse"}
        assert not retired & {s.name for s in serial + tiled}


class TestTilesRunTheDenseEngineOnly:
    """The tile workers run the dense tile body and the batched score;
    a variant that means something else must be refused, not ignored."""

    @pytest.mark.parametrize(
        "kwargs", [{"variant": "sparse-batched", "top_k": 5}, {"variant": "baseline"}]
    )
    def test_executor_rejects_before_spawning(self, tiny_dataset, kwargs, monkeypatch):
        import repro.exec.executors as executors_mod

        def no_ranks(*args, **kw):
            raise AssertionError("ranks were spawned")

        monkeypatch.setattr(executors_mod, "RankThreads", no_ranks)
        executor = make_executor("master-worker", n_workers=2, partition="tiles")
        ctx = RunContext(FCMAConfig(task_voxels=40, **kwargs))
        with pytest.raises(ValueError, match="dense engine only"):
            executor.run(tiny_dataset, ctx)

    def test_cli_exits_2_with_one_line(self, tiny_dataset, tmp_path, capsys):
        from repro.cli import main
        from repro.data import save_dataset

        path = tmp_path / "ds.npz"
        save_dataset(tiny_dataset, path)
        code = main([
            "run", str(path), "--executor", "master-worker",
            "--partition", "tiles", "--variant", "sparse-batched", "--top-k", "5",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--partition tiles" in err

    @pytest.mark.parametrize("variant", ["optimized", "optimized-batched"])
    def test_both_optimized_spellings_accepted(
        self, tiny_dataset, serial_scores, variant
    ):
        executor = make_executor("master-worker", n_workers=2, partition="tiles")
        config = FCMAConfig(variant=variant, task_voxels=40, target_block=32)
        scores = executor.run(tiny_dataset, RunContext(config))
        np.testing.assert_array_equal(scores.voxels, serial_scores.voxels)
        np.testing.assert_array_equal(scores.accuracies, serial_scores.accuracies)
