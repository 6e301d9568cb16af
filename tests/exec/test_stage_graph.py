"""One task's stages: the variant's fixed sequence, its telemetry, and
the per-task entry point."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FCMAConfig
from repro.core.engine import thread_budget
from repro.exec.context import RunContext
from repro.exec.stage_graph import execute_task


def _stage_names(dataset, variant: str) -> tuple[str, ...]:
    """The stages one task of ``variant`` timed, in order."""
    ctx = RunContext(FCMAConfig(variant=variant))
    execute_task(dataset, np.arange(10), ctx)
    return tuple(ctx.stages)


class TestBuiltinGraphs:
    def test_stage_names_mirror_the_paper(self, tiny_dataset):
        assert _stage_names(tiny_dataset, "baseline") == (
            "preprocess",
            "correlate",
            "normalize",
            "score",
        )
        assert _stage_names(tiny_dataset, "optimized") == (
            "preprocess",
            "correlate+normalize",
            "score",
        )


class TestExecuteTask:
    def test_records_stage_and_task_telemetry(self, tiny_dataset, fast_fcma_config):
        ctx = RunContext(fast_fcma_config)
        execute_task(tiny_dataset, np.arange(10), ctx)
        assert set(ctx.stages) == {"preprocess", "correlate+normalize", "score"}
        assert len(ctx.task_seconds) == 1
        assert ctx.task_seconds[0] > 0

    def test_rejects_empty_assignment(self, tiny_dataset, fast_fcma_config):
        with pytest.raises(ValueError, match="non-empty"):
            execute_task(
                tiny_dataset,
                np.array([], dtype=np.int64),
                RunContext(fast_fcma_config),
            )

    def test_rejects_2d_assignment(self, tiny_dataset, fast_fcma_config):
        with pytest.raises(ValueError, match="1D"):
            execute_task(
                tiny_dataset,
                np.zeros((2, 2), dtype=np.int64),
                RunContext(fast_fcma_config),
            )


class TestOptimizedBatchedGraph:
    def test_stage_names(self, tiny_dataset):
        assert _stage_names(tiny_dataset, "optimized-batched") == _stage_names(
            tiny_dataset, "optimized"
        )

    def test_matches_optimized_variant(self, tiny_dataset):
        """Both spellings of the optimized pipeline score bitwise alike."""
        assigned = np.arange(20, dtype=np.int64)
        opt = execute_task(
            tiny_dataset, assigned, RunContext(FCMAConfig(variant="optimized"))
        )
        bat = execute_task(
            tiny_dataset,
            assigned,
            RunContext(FCMAConfig(variant="optimized-batched")),
        )
        np.testing.assert_array_equal(opt.voxels, bat.voxels)
        np.testing.assert_array_equal(opt.accuracies, bat.accuracies)

    def test_records_plan_and_counters(self, tiny_dataset, monkeypatch):
        from repro.core import engine, kernels

        # Small enough that the 60-voxel brain is two tiles of two gemm
        # blocks: a 32-column Gram chunk, and the 8-row budget x 3 KiB
        # over 12 rows x 32 epochs x 4 bytes a column -> 16 columns.
        monkeypatch.setattr(kernels, "GRAM_CHUNK_COLS", 32)
        monkeypatch.setattr(engine, "DENSE_TILE_BYTES_PER_ROW", 3 * 1024)
        ctx = RunContext(FCMAConfig(variant="optimized-batched"))
        execute_task(tiny_dataset, np.arange(12, dtype=np.int64), ctx)
        plan = ctx.metadata["blocking_plan"]
        assert set(plan) == {
            "voxel_block", "target_block", "epoch_block",
            "tile_cols", "engine_threads",
        }
        # The walk the engine took: all 12 rows by one Gram chunk of
        # columns, the gemm inside it in 16-column blocks, and the
        # thread budget.
        assert (plan["voxel_block"], plan["tile_cols"]) == (12, 32)
        assert plan["target_block"] == 16
        assert plan["engine_threads"] == thread_budget()
        # A tile holds every epoch (not a hardware model's B' x E).
        assert plan["epoch_block"] == tiny_dataset.n_epochs == 32
        # One count per chunk walked: ceil(60 / 32).
        assert tiny_dataset.n_voxels == 60
        assert ctx.counter("stage12_tiles") == 2
        assert ctx.counter("emitter_dense_tiles") == 2
        assert set(ctx.stages) == {"preprocess", "correlate+normalize", "score"}
