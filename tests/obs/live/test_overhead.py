"""The live plane's overhead bound, mirroring the tracer's 5% gate.

Same paired-median methodology as ``TestOverhead`` in
``tests/obs/test_run_trace.py``: adjacent-in-time pairs cancel load
drift, the median paired difference shrugs off scheduler spikes.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core import FCMAConfig
from repro.exec import RunContext, make_executor
from repro.obs.live import (
    LiveRuntime,
    RingSink,
    SnapshotPublisher,
    activated,
)


@pytest.fixture(scope="module")
def batched_config() -> FCMAConfig:
    return FCMAConfig(
        variant="optimized-batched",
        task_voxels=40,
        target_block=32,
    )


class TestLiveOverhead:
    def test_live_plane_costs_under_five_percent(
        self, tiny_dataset, batched_config
    ):
        """Full plane on (runtime active + tracer dual-write + 20 Hz
        publisher into a ring) vs plane off, on the optimized-batched
        pipeline the tracer overhead gate also uses."""

        def run_once(live: bool) -> float:
            ctx = RunContext(batched_config)
            if not live:
                t0 = time.perf_counter()
                make_executor("serial").run(tiny_dataset, ctx)
                return time.perf_counter() - t0
            rt = LiveRuntime()
            rt.attach_tracer(ctx.tracer)
            publisher = SnapshotPublisher(rt, [RingSink()], interval=0.05)
            publisher.start()
            try:
                with activated(rt):
                    t0 = time.perf_counter()
                    make_executor("serial").run(tiny_dataset, ctx)
                    return time.perf_counter() - t0
            finally:
                publisher.stop()
                rt.detach_tracer(ctx.tracer)

        def measure() -> tuple[float, float]:
            pairs = [(run_once(False), run_once(True)) for _ in range(7)]
            baseline = statistics.median(b for b, _ in pairs)
            overhead = statistics.median(t - b for b, t in pairs)
            return overhead, baseline

        run_once(True)  # warm caches (BLAS threads, preprocessing)
        # A loaded CI box can blow any single measurement; re-measure
        # before failing so only a *persistent* overhead trips the gate.
        for _ in range(3):
            overhead, baseline = measure()
            if overhead <= baseline * 0.05:
                break
        assert overhead <= baseline * 0.05, (
            f"live-plane overhead {overhead / baseline:.1%} exceeds 5% "
            f"(median paired diff {overhead:.4f}s on a "
            f"{baseline:.4f}s baseline)"
        )
